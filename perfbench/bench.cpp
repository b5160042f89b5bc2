#include "bench.hpp"

#include "core/random_fill.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <numeric>
#include <thread>
#include <unistd.h>

namespace perfbench {

double percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double sum(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

const char* layer_name(Layer l)
{
    switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kModel: return "model";
    case Layer::kRuntime: return "runtime";
    case Layer::kSimt: return "simt";
    case Layer::kQuery: return "query";
    case Layer::kStream: return "stream";
    case Layer::kService: return "service";
    case Layer::kOracle: return "oracle";
    }
    return "?";
}

namespace {
thread_local std::vector<std::int64_t> open_stack;
std::atomic<int> next_thread{0};
thread_local int thread_index = next_thread.fetch_add(1);
} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::us(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::int64_t Tracer::open(const char* name, Layer layer,
                          std::uint64_t request, bool wait)
{
    const std::int64_t parent = open_stack.empty() ? -1 : open_stack.back();
    const double t0 = us(Clock::now());
    std::int64_t id = 0;
    {
        std::lock_guard lk(mu_);
        id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(
            {name, layer, t0, t0, parent, request, thread_index, wait});
    }
    open_stack.push_back(id);
    return id;
}

void Tracer::close(std::int64_t id)
{
    const double t1 = us(Clock::now());
    if (!open_stack.empty() && open_stack.back() == id)
        open_stack.pop_back();
    std::lock_guard lk(mu_);
    spans_[static_cast<std::size_t>(id)].t1_us = t1;
}

std::int64_t Tracer::record(const char* name, Layer layer,
                            Clock::time_point t0, Clock::time_point t1,
                            std::int64_t parent, std::uint64_t request,
                            bool wait)
{
    if (!enabled_)
        return -1;
    std::lock_guard lk(mu_);
    spans_.push_back(
        {name, layer, us(t0), us(t1), parent, request, thread_index, wait});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const
{
    std::lock_guard lk(mu_);
    return spans_;
}

void Tracer::write_chrome_json(const std::string& path) const
{
    const std::vector<Span> all = spans();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << layer_name(s.layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << s.t0_us << ",\"dur\":" << (s.t1_us - s.t0_us)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << ",\"wait\":" << s.wait
           << "}}";
    }
    os << "\n]}\n";
}

LayerTimes layer_times(const std::vector<Span>& spans)
{
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans)
        if (s.parent >= 0)
            child_us[static_cast<std::size_t>(s.parent)] += s.t1_us - s.t0_us;
    LayerTimes lt;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double self =
            std::max(0.0, spans[i].t1_us - spans[i].t0_us - child_us[i]);
        const auto l = static_cast<std::size_t>(spans[i].layer);
        (spans[i].wait ? lt.wait_ms : lt.self_ms)[l] += self / 1000.0;
    }
    return lt;
}

std::unique_ptr<satgpu::sat::Runtime> new_runtime(int threads)
{
    return std::make_unique<satgpu::sat::Runtime>(
        satgpu::simt::Engine::Options{.record_history = false,
                                      .num_threads = threads});
}

namespace {

double llc_bytes()
{
    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 <= 0) {
        std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
        std::string s;
        if (f >> s && !s.empty()) {
            const double v = std::stod(s);
            l3 = static_cast<long>(s.back() == 'K'   ? v * 1024
                                   : s.back() == 'M' ? v * 1024 * 1024
                                                     : v);
        }
    }
    return l3 > 0 ? static_cast<double>(l3) : 32.0 * 1024 * 1024;
}

} // namespace

double copy_probe_gbps(int threads, double& array_mib, double& llc_mib)
{
    const double llc = llc_bytes();
    const auto bytes = static_cast<std::size_t>(
        std::max(4.0 * llc, 256.0 * 1024 * 1024));
    array_mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
    llc_mib = llc / (1024.0 * 1024.0);
    const std::unique_ptr<char[]> src(new char[bytes]);
    const std::unique_ptr<char[]> dst(new char[bytes]);
    std::memset(src.get(), 1, bytes);
    std::memset(dst.get(), 0, bytes);
    const std::size_t per = bytes / static_cast<std::size_t>(threads);
    std::vector<double> secs;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        std::vector<std::jthread> pool;
        for (int t = 0; t < threads; ++t) {
            const std::size_t lo = per * static_cast<std::size_t>(t);
            const std::size_t n = t + 1 == threads ? bytes - lo : per;
            pool.emplace_back([&, lo, n] {
                std::memcpy(dst.get() + lo, src.get() + lo, n);
            });
        }
        pool.clear();
        secs.push_back(ms_since(t0) / 1000.0);
    }
    if (dst[bytes - 1] != 1)
        return 0;
    return 2.0 * static_cast<double>(bytes) / median(secs) / 1e9;
}

satgpu::sat::AnyMatrix make_image(satgpu::Dtype t, std::int64_t h,
                                  std::int64_t w, std::uint64_t seed, int hi)
{
    using namespace satgpu;
    sat::AnyMatrix m = sat::AnyMatrix::zeros(t, h, w);
    switch (t) {
    case Dtype::u8_: fill_random_ints(m.as<u8>(), seed, hi); break;
    case Dtype::i32_: fill_random_ints(m.as<i32>(), seed, hi); break;
    case Dtype::u32_: fill_random_ints(m.as<u32>(), seed, hi); break;
    case Dtype::f32_: fill_random_ints(m.as<f32>(), seed, hi); break;
    case Dtype::f64_: fill_random_ints(m.as<f64>(), seed, hi); break;
    }
    return m;
}

} // namespace perfbench
