// Shared plumbing of the satbench harness: the run context, the report a
// workload fills, sample statistics, and the span recorder of the traced
// run.  Every span wraps one call into a public function of the library;
// nothing here reaches inside it.
#pragma once

#include "sat/runtime.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
[[nodiscard]] inline double ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in (0, 100]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}
[[nodiscard]] double sum(const std::vector<double>& v);[[nodiscard]] inline double mean(const std::vector<double>& v)
{
    return v.empty() ? 0 : sum(v) / double(v.size());
}

// ---------------------------------------------------------------------------
// Spans of the traced run.

/// Layers of the program a span can be charged to (the repo's modules);
/// kBench is the benchmark's own work (input generation, verification,
/// pacing).
enum class Layer { kBench, kModel, kRuntime, kSimt, kQuery, kStream,
                   kService, kOracle };
inline constexpr Layer kProgramLayers[] = {
    Layer::kModel, Layer::kRuntime, Layer::kSimt, Layer::kQuery,
    Layer::kStream, Layer::kService, Layer::kOracle};
[[nodiscard]] const char* layer_name(Layer l);

struct Span {
    const char* name = "";
    Layer layer = Layer::kBench;
    double t0_us = 0; ///< since the recorder was created
    double t1_us = 0;
    std::int64_t parent = -1; ///< index of the enclosing span, -1 = root
    std::uint64_t request = 0; ///< serve_mixed request id (0 = none)
    int thread = 0;
    /// The caller was blocked on the layer (a future), not running it.
    bool wait = false;
};

/// In-memory span store.  Disabled recorders record nothing and cost one
/// branch per scope; enabled ones append under a mutex (the only
/// multi-threaded user, serve_mixed, records a few spans per request).
/// satbench's main() writes the spans out when the run ends.
class Tracer {
public:
    explicit Tracer(bool enabled);
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    void set_enabled(bool on) noexcept { enabled_ = on; }

    /// Open a span on the calling thread, nested under that thread's
    /// innermost open span.  Returns its index (-1 when disabled).
    std::int64_t open(const char* name, Layer layer,
                      std::uint64_t request = 0, bool wait = false);
    void close(std::int64_t id);
    /// Record a finished span with explicit endpoints (open-loop request
    /// spans start at their due time, before any code runs for them).
    std::int64_t record(const char* name, Layer layer, Clock::time_point t0,
                        Clock::time_point t1, std::int64_t parent,
                        std::uint64_t request, bool wait = false);

    /// Snapshot of every recorded span.
    [[nodiscard]] std::vector<Span> spans() const;
    /// Chrome trace-event JSON of every span.
    void write_chrome_json(const std::string& path) const;

private:
    [[nodiscard]] double us(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
public:
    Scope(Tracer& t, const char* name, Layer layer, std::uint64_t request = 0,
          bool wait = false)
        : t_(t), id_(t.enabled() ? t.open(name, layer, request, wait) : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            t_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& t_;
    std::int64_t id_;
};

/// Per-layer totals from a span list, in milliseconds: self time
/// (duration minus the time covered by child spans) and time callers spent
/// blocked waiting on the layer.
struct LayerTimes {
    double self_ms[8] = {};
    double wait_ms[8] = {};
};
[[nodiscard]] LayerTimes layer_times(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Run context and report.

struct Context {
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Tracer* tracer = nullptr;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct Report {
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< human-readable context lines
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;     ///< execution errors and rejections
    std::uint64_t mismatches = 0; ///< outputs differing from the oracle

    void put(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    /// Count one verified output.
    void check(bool equal)
    {
        ++attempted;
        if (!equal)
            ++mismatches;
    }
};

/// Median of `runs` timed set-ups, in seconds: the workload-start ->
/// everything-resolved-certified-and-pooled interval.
inline constexpr int kSetupRuns = 3;

/// Fixed thread budget of the benchmark (nproc of the 4-vCPU reference
/// host).  Fixed rather than probed so the workloads mean the same thing
/// on every host.
inline constexpr int kThreads = 4;

/// A fresh runtime (engine + pool + cost model + certificate cache) with
/// `threads` engine threads: every set-up and cold probe starts from one.
[[nodiscard]] std::unique_ptr<satgpu::sat::Runtime> new_runtime(int threads);

/// Runs `loop(seconds)` over the run's timed window and returns its result.
/// The traced mode splits the window: an untraced first half, then a
/// traced second half whose result is returned, and sets `overhead` to the
/// traced cost per operation over the untraced one, minus 1 (both halves
/// run in the same process).
template <typename Loop, typename Cost>
auto timed_window(const Context& ctx, Loop&& loop, Cost&& cost_per_op,
                  double& overhead)
{
    if (!ctx.trace)
        return loop(ctx.seconds);
    ctx.tracer->set_enabled(false);
    const auto plain = loop(ctx.seconds / 2);
    ctx.tracer->set_enabled(true);
    auto traced = loop(ctx.seconds / 2);
    const double base = cost_per_op(plain);
    overhead = base > 0 ? cost_per_op(traced) / base - 1 : 0;
    return traced;
}

/// Host memory copy bandwidth over arrays of at least four times the
/// last-level cache, copied by `threads` threads; GB/s counting one read
/// and one write per byte.  Sets `array_mib`/`llc_mib` for the report.
[[nodiscard]] double copy_probe_gbps(int threads, double& array_mib,
                                     double& llc_mib);

/// Integer-valued seeded fill in [0, hi] for any element type (float
/// pairs stay exact: every partial sum is a representable integer).
[[nodiscard]] satgpu::sat::AnyMatrix make_image(satgpu::Dtype t,
                                                std::int64_t h,
                                                std::int64_t w,
                                                std::uint64_t seed, int hi);

Report run_batch_large(const Context& ctx);
Report run_serve_mixed(const Context& ctx);
Report run_query_fused(const Context& ctx);
Report run_stream_window(const Context& ctx);

} // namespace perfbench
