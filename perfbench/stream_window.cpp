// stream_window: one StreamSession (512^2 8u->32u, window T = 8,
// incremental update).  Each cycle pushes a frame, then issues a fixed
// number of window_sum reads.  The only workload that runs the ring
// update of integral_video and writes beside reads; sessions run on the
// simulator, so it also covers the simt engine path.
#include "bench.hpp"

#include "model/gpu_specs.hpp"
#include "sat/service.hpp"

#include <cstdio>
#include <memory>
#include <random>

namespace perfbench {

using namespace satgpu;
using sat::AnyMatrix;
using sat::Runtime;
using sat::Service;
using sat::StreamSession;

namespace {

constexpr std::int64_t kSide = 512;
constexpr DtypePair kPair{Dtype::u8_, Dtype::u32_};
constexpr std::int64_t kWindow = 8;
/// Distinct frames the stream cycles through.
constexpr int kFrames = 16;
constexpr int kReadsPerCycle = 64;
/// Latency limit of one cycle (push plus reads).
constexpr double kCycleLimitMs = 500;

struct Rect {
    std::int64_t y0, x0, y1, x1;
};

StreamSession::Options session_options()
{
    return {.height = kSide,
            .width = kSide,
            .dtypes = kPair,
            .window = kWindow,
            .mode = sat::StreamUpdateMode::kIncremental,
            .engine_threads = kThreads};
}

struct Loop {
    std::vector<double> push_ms, read_us, cycle_ms;
};

} // namespace

Report run_stream_window(const Context& ctx)
{
    Tracer& tr = *ctx.tracer;
    Report rep;

    std::vector<AnyMatrix> frames;
    std::vector<Matrix<u32>> sats; // serial oracle of each frame
    {
        Runtime oracle_rt;
        for (int f = 0; f < kFrames; ++f) {
            frames.push_back(make_image(Dtype::u8_, kSide, kSide,
                                        ctx.seed * 1000 + std::uint64_t(f),
                                        255));
            Scope sc(tr, "oracle.reference", Layer::kOracle);
            sats.push_back(
                oracle_rt.reference(frames.back(), kPair.out).as<u32>());
        }
    }
    std::vector<Rect> rects(4096);
    {
        std::mt19937_64 rng(ctx.seed * 7 + 3);
        std::uniform_int_distribution<std::int64_t> d(0, kSide - 1);
        for (Rect& r : rects) {
            const std::int64_t ya = d(rng), yb = d(rng);
            const std::int64_t xa = d(rng), xb = d(rng);
            r = {std::min(ya, yb), std::min(xa, xb), std::max(ya, yb),
                 std::max(xa, xb)};
        }
    }

    // Expected window sum over the frames pushed as numbers
    // [pushed - T, pushed), wrapping like the u32 table does.
    const auto expected = [&](std::int64_t pushed, const Rect& r) {
        u32 acc = 0;
        for (std::int64_t k = pushed - kWindow; k < pushed; ++k)
            acc = static_cast<u32>(
                acc + sat::rect_sum(sats[static_cast<std::size_t>(k % kFrames)],
                                    r.y0, r.x0, r.y1, r.x1));
        return static_cast<double>(acc);
    };

    std::unique_ptr<Service> svc;
    std::unique_ptr<StreamSession> session;
    std::int64_t pushed = 0;
    std::vector<double> setup_s, open_ms;
    for (int r = 0; r < kSetupRuns; ++r) {
        session.reset();
        svc.reset();
        pushed = 0;
        Scope sc(tr, "setup", Layer::kBench);
        const auto t0 = Clock::now();
        svc = std::make_unique<Service>(Service::Options{.workers = 1});
        const auto to = Clock::now();
        {
            Scope so(tr, "stream.open_stream", Layer::kStream);
            session = svc->open_stream(session_options());
        }
        open_ms.push_back(ms_since(to));
        // Fill the ring: steady state subtracts the frame leaving the
        // window on every push.
        for (; pushed < kWindow; ++pushed) {
            Scope sp(tr, "stream.push", Layer::kStream);
            session->push(frames[static_cast<std::size_t>(pushed % kFrames)]);
        }
        setup_s.push_back(ms_since(t0) / 1000.0);
    }

    std::size_t next_rect = 0;
    const auto run_loop = [&](double seconds) {
        Loop l;
        const auto start = Clock::now();
        std::vector<double> got(kReadsPerCycle);
        while (l.cycle_ms.empty() || ms_since(start) < seconds * 1000) {
            const auto t0 = Clock::now();
            {
                Scope sp(tr, "stream.push", Layer::kStream);
                session->push(
                    frames[static_cast<std::size_t>(pushed % kFrames)]);
            }
            ++pushed;
            const double push = ms_since(t0);
            double reads = 0;
            for (int q = 0; q < kReadsPerCycle; ++q) {
                const Rect& rc = rects[(next_rect + std::size_t(q)) %
                                       rects.size()];
                const auto tq = Clock::now();
                {
                    Scope sr(tr, "stream.window_sum", Layer::kStream);
                    got[std::size_t(q)] =
                        session->window_sum(rc.y0, rc.x0, rc.y1, rc.x1);
                }
                const double us = ms_since(tq) * 1000;
                l.read_us.push_back(us);
                reads += us / 1000;
            }
            l.push_ms.push_back(push);
            l.cycle_ms.push_back(push + reads);
            Scope v(tr, "verify", Layer::kBench);
            for (int q = 0; q < kReadsPerCycle; ++q)
                rep.check(got[std::size_t(q)] ==
                          expected(pushed, rects[(next_rect + std::size_t(q)) %
                                                 rects.size()]));
            next_rect += kReadsPerCycle;
        }
        return l;
    };

    double overhead = 0;
    const Loop loop = timed_window(
        ctx, run_loop, [](const Loop& l) { return mean(l.cycle_ms); },
        overhead);

    // The whole window table once, against the sum of the frame SATs.
    {
        Matrix<u32> want(kSide, kSide);
        for (std::int64_t k = pushed - kWindow; k < pushed; ++k) {
            const Matrix<u32>& s = sats[static_cast<std::size_t>(k % kFrames)];
            for (std::int64_t i = 0; i < want.size(); ++i)
                want.flat()[std::size_t(i)] = static_cast<u32>(
                    want.flat()[std::size_t(i)] + s.flat()[std::size_t(i)]);
        }
        rep.check(session->window_table() == AnyMatrix(std::move(want)));
    }

    const double cycles = double(loop.cycle_ms.size());
    std::uint64_t within = 0;
    for (const double c : loop.cycle_ms)
        within += c <= kCycleLimitMs ? 1 : 0;
    const double fps = cycles / (sum(loop.cycle_ms) / 1000);

    rep.put("setup_s", median(setup_s), "s");
    rep.put("mpix_s", fps * double(kSide * kSide) / 1e6, "Mpix/s");
    rep.put("p50_ms", median(loop.push_ms), "ms");
    rep.put("tail_ms", percentile(loop.push_ms, 90), "ms");
    rep.put("slo_share", double(within) / cycles, "share");

    rep.put("stream.open_ms", median(open_ms), "ms");
    rep.put("stream.device_bytes_per_push", double(session->last_push_bytes()),
            "bytes");
    rep.put("stream.read_p50_us", median(loop.read_us), "us");
    rep.put("stream.ring_mb", double(session->ring_bytes()) / (1024.0 * 1024.0),
            "MiB");

    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "samples: %zu cycles, %zu reads; stream_fps %.3f; "
                  "session %s",
                  loop.cycle_ms.size(), loop.read_us.size(), fps,
                  session->label().c_str());
    rep.note(buf);

    if (ctx.trace) {
        // The session resolves kAuto through a plain simulator plan on
        // its private runtime; probe that plan and its model cost cold.
        const auto plan_rt = new_runtime(kThreads);
        const auto t0 = Clock::now();
        {
            Scope sc(tr, "runtime.plan", Layer::kRuntime);
            (void)plan_rt->plan({.height = kSide,
                                 .width = kSide,
                                 .dtypes = kPair,
                                 .algorithm = sat::Algorithm::kAuto});
        }
        rep.put("runtime.plan_cold_ms", ms_since(t0), "ms");
        const auto model_rt = new_runtime(kThreads);
        {
            Scope sc(tr, "model.predict_us", Layer::kModel);
            (void)model_rt->predict_us(session->algorithm(), kPair, kSide,
                                       kSide, model::tesla_p100());
        }
        rep.put("trace.overhead_share", overhead, "share");
    }
    return rep;
}

} // namespace perfbench
