// serve_mixed: an open loop at one fixed rate into sat::Service (2
// workers, 1 engine thread each, native backend), carrying the five
// small-image templates of satgpu_serve's "mixed" trace.  Each kernel runs
// well under a millisecond, so admission, queueing, the plan cache, wave
// assembly, launch set-up and pool leases dominate -- the layers
// batch_large barely touches.
//
// Latency runs from each request's due time (not its actual send) to the
// moment the generator, which polls outstanding futures while it waits for
// the next due time, sees the future ready; a stalled generator or service
// is charged to every request it delays.
#include "bench.hpp"

#include "model/cost_model.hpp"
#include "sat/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <thread>

namespace perfbench {

using namespace satgpu;
using sat::AnyMatrix;
using sat::Runtime;
using sat::Service;

namespace {

/// Offered load, well below capacity (two closed-loop callers get ~3000
/// req/s through these two workers; a standing backlog of full 8-request
/// waves ~4300 req/s).  At 1000 req/s the p90 moved by ~30% from run to
/// run on a shared VM whose vCPUs stall for milliseconds; at 500 req/s
/// either worker alone carries the load through a stall of the other.
constexpr double kRatePerS = 500;
/// Percentile reported as tail_ms.  p99 tracks host stalls (1.4 to 12 ms
/// across runs on the same VM); it is printed with the other percentiles,
/// and serve_slo_share bounds the share of requests beyond kSloMs.
constexpr double kTailPercentile = 90;
/// Latency limit of serve_slo_share; failures and rejections miss it.
constexpr double kSloMs = 5;
constexpr int kWorkers = 2;
constexpr int kImagesPerTemplate = 8;
/// Every request names this algorithm instead of kAuto.  kAuto ranks
/// candidates by a timed calibration run, and on a noisy host the ranking
/// for these small shapes flips between runs (ScanRowColumn vs
/// BRLT-ScanRow, a 3x difference in p50), so kAuto traffic makes the
/// executed program a coin toss per run.  ScanRowColumn is what the
/// ranking picks on a quiet host; model.auto_unstable_share (traced run)
/// measures the flip.
constexpr sat::Algorithm kAlgorithm = sat::Algorithm::kScanRowColumn;
/// Set-ups per run: with a concrete algorithm one takes only ~25 ms, so
/// more of them keep the median clear of a single host stall.
constexpr int kServeSetupRuns = 7;
/// Request templates of satgpu_serve's "mixed" trace.
struct Template {
    std::int64_t h, w;
    DtypePair pair;
};
constexpr Template kTemplates[5] = {
    {128, 128, {Dtype::u8_, Dtype::u32_}},
    {96, 160, {Dtype::u8_, Dtype::i32_}},
    {256, 256, {Dtype::u8_, Dtype::u32_}},
    {64, 64, {Dtype::f32_, Dtype::f32_}},
    {160, 96, {Dtype::u32_, Dtype::u32_}},
};
constexpr std::size_t kKeys = std::size(kTemplates);

Service::Options service_options()
{
    return {.workers = kWorkers,
            .engine_threads = 1,
            .max_queue = 1024,
            // Never park the generator: an open loop must keep its
            // schedule, and a rejection counts as a failure.
            .policy = Service::AdmissionPolicy::kReject};
}

Service::Request make_request(const AnyMatrix& image, Dtype out)
{
    Service::Request r;
    r.image = image;
    r.out = out;
    r.algorithm = kAlgorithm;
    r.backend = sat::Backend::kNative;
    return r;
}

constexpr const char* kQueueWaitUs = "satgpu_service_queue_wait_us";
constexpr const char* kExecuteUs = "satgpu_service_execute_us";

/// Bucket counts of one histogram family summed over every plan label.
std::vector<std::uint64_t> family_buckets(Service& svc, const char* name)
{
    std::vector<std::uint64_t> b(sat::obs::Histogram::kBuckets, 0);
    for (const Service::PlanInfo& p : svc.plan_info()) {
        const sat::obs::Histogram& h = svc.metrics().histogram(name, p.label);
        for (int i = 0; i < sat::obs::Histogram::kBuckets; ++i)
            b[std::size_t(i)] += h.bucket_count(i);
    }
    return b;
}

/// Nearest-rank quantile of the samples observed between two snapshots
/// (upper edge of the holding bucket, like Histogram::quantile).
double delta_quantile(const std::vector<std::uint64_t>& before,
                      const std::vector<std::uint64_t>& after, double p)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < after.size(); ++i)
        n += after[i] - before[i];
    if (n == 0)
        return 0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * double(n))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < after.size(); ++i) {
        seen += after[i] - before[i];
        if (seen >= rank)
            return double(sat::obs::Histogram::bucket_hi(int(i)));
    }
    return 0;
}

struct Inflight {
    std::uint64_t id = 0;
    std::size_t tmpl = 0, image = 0;
    Clock::time_point due, sent, returned;
    std::future<AnyMatrix> fut;
};

/// Service counters and latency histograms at one instant.
struct Snapshot {
    Service::Stats stats;
    std::vector<std::uint64_t> wait, exec;
};

struct OpenLoop {
    Snapshot before, after; ///< around the timed window
    std::vector<double> latency_ms; ///< completed requests
    std::vector<double> late_ms;    ///< send time minus due time
    std::vector<double> submit_us;
    std::uint64_t sent = 0, completed = 0, within_slo = 0;
    double pixels = 0;
    double window_s = 0; ///< first due time to last completion
};

} // namespace

Report run_serve_mixed(const Context& ctx)
{
    Tracer& tr = *ctx.tracer;
    Report rep;

    // Inputs and their serial oracle tables.
    std::vector<AnyMatrix> images[kKeys], refs[kKeys];
    {
        Runtime oracle_rt;
        for (std::size_t t = 0; t < kKeys; ++t) {
            const Template& tp = kTemplates[t];
            // Values <= 15 keep the 32f tables exact at these areas.
            const int hi = tp.pair.in == Dtype::f32_ ? 15 : 255;
            for (int k = 0; k < kImagesPerTemplate; ++k) {
                images[t].push_back(make_image(
                    tp.pair.in, tp.h, tp.w,
                    ctx.seed * 100 + t * kImagesPerTemplate + std::size_t(k),
                    hi));
                Scope sc(tr, "oracle.reference", Layer::kOracle);
                refs[t].push_back(
                    oracle_rt.reference(images[t].back(), tp.pair.out));
            }
        }
    }

    const auto submit = [&](Service& svc, std::size_t t, std::size_t k) {
        std::future<AnyMatrix> f;
        {
            Scope sc(tr, "service.submit", Layer::kService);
            f = svc.submit(make_request(images[t][k], kTemplates[t].pair.out));
        }
        return f;
    };
    const auto finish = [&](std::future<AnyMatrix>& f, std::size_t t,
                            std::size_t k) {
        try {
            AnyMatrix out;
            {
                Scope sc(tr, "service.future_get", Layer::kService, 0, true);
                out = f.get();
            }
            rep.check(out == refs[t][k]);
        } catch (const std::exception&) {
            ++rep.attempted;
            ++rep.failed;
        }
    };

    // Set-up ends when every worker holds a resolved, certified, pooled
    // plan for every key: each worker owns its own Runtime and
    // certificate cache, so a key is not warm until both have run it.
    std::unique_ptr<Service> svc;
    std::vector<double> setup_s;
    std::uint64_t warm_rounds = 0;
    for (int r = 0; r < kServeSetupRuns; ++r) {
        svc.reset();
        Scope sc(tr, "setup", Layer::kBench);
        const auto t0 = Clock::now();
        svc = std::make_unique<Service>(service_options());
        bool warm = false;
        for (int round = 0; !warm && round < 1000; ++round, ++warm_rounds) {
            std::vector<std::future<AnyMatrix>> fs;
            for (std::size_t k = 0; k < 2; ++k)
                for (std::size_t t = 0; t < kKeys; ++t)
                    fs.push_back(submit(*svc, t, k));
            for (std::size_t i = 0; i < fs.size(); ++i)
                finish(fs[i], i % kKeys, i / kKeys);
            Scope ss(tr, "service.stats", Layer::kService);
            warm = svc->stats().plans_instantiated >= kKeys * kWorkers;
        }
        setup_s.push_back(ms_since(t0) / 1000.0);
        if (!warm)
            rep.note("warm-up gave up before every worker planned every key");
    }

    std::mt19937_64 rng(ctx.seed * 11 + 5);
    std::uint64_t next_id = 1;

    const auto snapshot = [&] {
        Snapshot s;
        Scope sc(tr, "service.stats", Layer::kService);
        s.stats = svc->stats();
        s.wait = family_buckets(*svc, kQueueWaitUs);
        s.exec = family_buckets(*svc, kExecuteUs);
        return s;
    };

    const auto run_open_loop = [&](double seconds) {
        OpenLoop l;
        l.before = snapshot();
        l.sent = static_cast<std::uint64_t>(kRatePerS * seconds);
        const auto start = Clock::now() + std::chrono::milliseconds(5);
        const auto interval = std::chrono::duration<double>(1.0 / kRatePerS);
        Clock::time_point last_done = start;
        std::deque<Inflight> pending;

        // Stamp every ready request before verifying any, so verification
        // never delays a completion stamp.
        const auto harvest = [&] {
            const auto now = Clock::now();
            std::vector<Inflight> ready;
            for (auto it = pending.begin(); it != pending.end();) {
                if (it->fut.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    ready.push_back(std::move(*it));
                    it = pending.erase(it);
                } else {
                    ++it;
                }
            }
            for (Inflight& f : ready) {
                const double lat = ms_between(f.due, now);
                last_done = now;
                const std::int64_t req =
                    tr.record("request", Layer::kBench, f.due, now, -1, f.id);
                tr.record("service.submit", Layer::kService, f.sent,
                          f.returned, req, f.id);
                tr.record("service.in_flight", Layer::kService, f.returned,
                          now, req, f.id, true);
                ++rep.attempted;
                try {
                    const bool ok = f.fut.get() == refs[f.tmpl][f.image];
                    rep.mismatches += ok ? 0 : 1;
                    ++l.completed;
                    l.latency_ms.push_back(lat);
                    l.pixels += double(kTemplates[f.tmpl].h *
                                       kTemplates[f.tmpl].w);
                    l.within_slo += ok && lat <= kSloMs ? 1 : 0;
                } catch (const std::exception&) {
                    ++rep.failed;
                }
            }
        };
        // Wait until `until`, stamping completions as they land: block on
        // the oldest request, which wakes this thread the moment its
        // promise is set.  At this rate a request nearly always completes
        // before the next one is due, so completions arrive in order; one
        // that overtakes the oldest is stamped when the oldest lands.
        const auto wait_and_harvest = [&](Clock::time_point until) {
            while (!pending.empty() && Clock::now() < until) {
                pending.front().fut.wait_until(until);
                harvest();
            }
            std::this_thread::sleep_until(until);
        };

        for (std::uint64_t i = 0; i < l.sent; ++i) {
            Inflight f;
            f.id = next_id++;
            f.tmpl = std::size_t(i % kKeys);
            f.image = std::size_t(rng() % kImagesPerTemplate);
            f.due = start + std::chrono::duration_cast<Clock::duration>(
                                interval * double(i));
            wait_and_harvest(f.due);
            Service::Request req = make_request(
                images[f.tmpl][f.image], kTemplates[f.tmpl].pair.out);
            f.sent = Clock::now();
            f.fut = svc->submit(std::move(req));
            f.returned = Clock::now();
            l.late_ms.push_back(ms_between(f.due, f.sent));
            l.submit_us.push_back(ms_between(f.sent, f.returned) * 1000);
            pending.push_back(std::move(f));
        }
        while (!pending.empty()) {
            pending.front().fut.wait_for(std::chrono::microseconds(100));
            harvest();
        }
        l.window_s = ms_between(start, last_done) / 1000;
        l.after = snapshot();
        return l;
    };

    double overhead = 0;
    const OpenLoop loop = timed_window(
        ctx, run_open_loop,
        [](const OpenLoop& l) { return mean(l.latency_ms); }, overhead);
    {
        Scope sc(tr, "service.metrics_json", Layer::kService);
        (void)svc->metrics_json();
    }

    const Service::Stats& a = loop.after.stats;
    const Service::Stats& b = loop.before.stats;
    const double done = double(a.completed - b.completed);
    const double waves = double(a.waves - b.waves);

    rep.put("setup_s", median(setup_s), "s");
    rep.put("mpix_s", loop.pixels / 1e6 / loop.window_s, "Mpix/s");
    rep.put("p50_ms", median(loop.latency_ms), "ms");
    rep.put("tail_ms", percentile(loop.latency_ms, kTailPercentile), "ms");
    rep.put("slo_share", double(loop.within_slo) / double(loop.sent),
            "share");

    rep.put("service.submit_p50_us", median(loop.submit_us), "us");
    rep.put("service.queue_wait_p50_us",
            delta_quantile(loop.before.wait, loop.after.wait, 50), "us");
    rep.put("service.queue_wait_p99_us",
            delta_quantile(loop.before.wait, loop.after.wait, 99), "us");
    rep.put("service.execute_p50_us",
            delta_quantile(loop.before.exec, loop.after.exec, 50), "us");
    rep.put("service.wave_size_mean",
            waves > 0 ? double(a.completed + a.failed - b.completed -
                               b.failed) / waves
                      : 0,
            "count");
    rep.put("service.fused_share",
            done > 0 ? double(a.fused_requests - b.fused_requests) / done : 0,
            "share");
    const double lookups = double(a.plan_hits + a.plan_misses - b.plan_hits -
                                  b.plan_misses);
    rep.put("service.plan_hit_ratio",
            lookups > 0 ? double(a.plan_hits - b.plan_hits) / lookups : 0,
            "share");
    rep.put("service.max_queue_depth", double(a.max_queue_depth), "count");
    rep.put("service.rejected", double(a.rejected - b.rejected), "count");
    rep.put("service.failed", double(a.failed - b.failed), "count");
    rep.put("gen.late_p99_ms", percentile(loop.late_ms, 99), "ms");
    rep.put("gen.late_max_ms", percentile(loop.late_ms, 100), "ms");

    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "samples: %llu sent, %llu completed at %.0f req/s offered; "
                  "serve_done_rps %.1f; serve_slo_share within %.0f ms; "
                  "warm-up rounds %llu",
                  static_cast<unsigned long long>(loop.sent),
                  static_cast<unsigned long long>(loop.completed), kRatePerS,
                  double(loop.completed) / loop.window_s, kSloMs,
                  static_cast<unsigned long long>(warm_rounds));
    rep.note(buf);
    std::snprintf(buf, sizeof buf,
                  "latency ms: p50 %.3f p90 %.3f p95 %.3f p99 %.3f p99.9 "
                  "%.3f max %.3f",
                  percentile(loop.latency_ms, 50),
                  percentile(loop.latency_ms, 90),
                  percentile(loop.latency_ms, 95),
                  percentile(loop.latency_ms, 99),
                  percentile(loop.latency_ms, 99.9),
                  percentile(loop.latency_ms, 100));
    rep.note(buf);
    if (ctx.trace) {
        // Cold probes for the largest template on fresh runtimes, the way
        // a worker's first request of that key pays them.
        const auto request_for = [](const Template& tp, sat::Algorithm a) {
            return sat::PlanRequest{.height = tp.h,
                                    .width = tp.w,
                                    .dtypes = tp.pair,
                                    .algorithm = a,
                                    .backend = sat::Backend::kNative};
        };
        const sat::PlanRequest req = request_for(kTemplates[2], kAlgorithm);
        const auto plan_rt = new_runtime(1);
        auto t0 = Clock::now();
        {
            Scope sc(tr, "runtime.plan", Layer::kRuntime);
            (void)plan_rt->plan(req);
        }
        rep.put("runtime.plan_cold_ms", ms_since(t0), "ms");
        const auto cert_rt = new_runtime(1);
        t0 = Clock::now();
        {
            Scope sc(tr, "runtime.certify", Layer::kRuntime);
            (void)cert_rt->certify(kAlgorithm, req);
        }
        rep.put("runtime.certify_ms", ms_since(t0), "ms");
        // How often kAuto's wall-clock ranking picks a different algorithm
        // for the same template on fresh runtimes (the reason the timed
        // traffic pins kAlgorithm).
        constexpr int kTrials = 3;
        sat::Algorithm picks[kKeys][kTrials] = {};
        for (int trial = 0; trial < kTrials; ++trial) {
            const auto auto_rt = new_runtime(1);
            for (std::size_t t = 0; t < kKeys; ++t) {
                Scope sc(tr, "model.kauto_plan", Layer::kModel);
                picks[t][trial] =
                    auto_rt->plan(request_for(kTemplates[t],
                                             sat::Algorithm::kAuto))
                        .algorithm();
            }
        }
        int unstable = 0;
        for (const auto& p : picks)
            unstable += std::all_of(std::begin(p), std::end(p),
                                    [&](sat::Algorithm a) { return a == p[0]; })
                            ? 0
                            : 1;
        rep.put("model.auto_unstable_share", unstable / double(kKeys),
                "share");
        rep.put("trace.overhead_share", overhead, "share");
    }
    return rep;
}

} // namespace perfbench
