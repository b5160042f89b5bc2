// batch_large: one closed-loop caller running Plan::execute back to back
// on 4096^2 images, alternating 8u->32u and 64f->64f.  The working sets
// (~80 MB and ~256 MB per image, input plus table) dwarf the last-level
// cache, so the kernels and memory bandwidth do nearly all the work and
// the service layer none.
#include "bench.hpp"

#include "model/cost_model.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

using namespace satgpu;
using sat::AnyMatrix;
using sat::Plan;
using sat::PlanRequest;
using sat::Runtime;

namespace {

constexpr std::int64_t kSide = 4096;
constexpr double kPixels = double(kSide) * double(kSide);
/// Latency limit of one cycle (one 8u->32u image then one 64f->64f image).
constexpr double kCycleLimitMs = 2000;

struct Pair {
    const char* name;
    DtypePair dtypes;
};
constexpr Pair kPairs[2] = {{"8u32u", {Dtype::u8_, Dtype::u32_}},
                            {"64f64f", {Dtype::f64_, Dtype::f64_}}};

PlanRequest request(DtypePair dt)
{
    return {.height = kSide,
            .width = kSide,
            .dtypes = dt,
            .algorithm = sat::Algorithm::kAuto,
            .backend = sat::Backend::kNative};
}

/// Bytes an image's SAT must move at minimum: read the input once, write
/// the table once (computed from array sizes, not measured).
double computed_bytes(DtypePair dt)
{
    return kPixels * double(dtype_size(dt.in) + dtype_size(dt.out));
}

struct Loop {
    std::vector<double> exec_ms[2]; ///< per pair
    std::vector<double> cycle_ms;
    std::uint64_t launches = 0;
    std::uint64_t images = 0;
};

} // namespace

Report run_batch_large(const Context& ctx)
{
    Tracer& tr = *ctx.tracer;
    Report rep;

    double host_gbps = 0;
    if (ctx.trace) {
        // Before the workload's own arrays exist, so the two footprints
        // never add up.
        double array_mib = 0, llc_mib = 0;
        host_gbps = copy_probe_gbps(kThreads, array_mib, llc_mib);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "copy probe: 2 arrays x %.0f MiB, last-level cache "
                      "%.0f MiB, %d threads",
                      array_mib, llc_mib, kThreads);
        rep.note(buf);
    }

    const AnyMatrix images[2] = {
        make_image(Dtype::u8_, kSide, kSide, ctx.seed * 2 + 1, 255),
        // Integer values <= 255 keep every 64f partial sum exact.
        make_image(Dtype::f64_, kSide, kSide, ctx.seed * 2 + 2, 255)};

    // Serial oracle, timed as the baseline and kept for verification.
    AnyMatrix refs[2];
    double ref_ms = 0;
    {
        Runtime oracle_rt;
        for (int i = 0; i < 2; ++i) {
            const auto t0 = Clock::now();
            {
                Scope s(tr, "oracle.reference", Layer::kOracle);
                refs[i] = oracle_rt.reference(images[i], kPairs[i].dtypes.out);
            }
            ref_ms += ms_since(t0);
        }
    }

    std::unique_ptr<Runtime> rt;
    Plan plans[2];
    std::vector<double> setup_s, plan_ms;
    for (int r = 0; r < kSetupRuns; ++r) {
        plans[0] = {};
        plans[1] = {};
        rt.reset();
        AnyMatrix warm[2];
        {
            Scope s(tr, "setup", Layer::kBench);
            const auto t0 = Clock::now();
            rt = new_runtime(kThreads);
            const auto tp = Clock::now();
            for (int i = 0; i < 2; ++i) {
                Scope sp(tr, "runtime.plan", Layer::kRuntime);
                plans[i] = rt->plan(request(kPairs[i].dtypes));
            }
            plan_ms.push_back(ms_since(tp));
            for (int i = 0; i < 2; ++i) {
                Scope se(tr, "runtime.execute", Layer::kRuntime);
                warm[i] = plans[i].execute(images[i]).table;
            }
            setup_s.push_back(ms_since(t0) / 1000.0);
        }
        for (int i = 0; i < 2; ++i)
            rep.check(warm[i] == refs[i]);
    }

    simt::BufferPool::Stats pool_before;
    {
        Scope s(tr, "simt.pool_stats", Layer::kSimt);
        pool_before = rt->pool_stats();
    }

    const auto run_loop = [&](double seconds) {
        Loop l;
        const auto start = Clock::now();
        while (l.cycle_ms.empty() || ms_since(start) < seconds * 1000) {
            double cycle = 0;
            for (int i = 0; i < 2; ++i) {
                sat::RuntimeResult res;
                const auto t0 = Clock::now();
                {
                    Scope s(tr, "runtime.execute", Layer::kRuntime);
                    res = plans[i].execute(images[i]);
                }
                const double ms = ms_since(t0);
                cycle += ms;
                l.exec_ms[i].push_back(ms);
                l.launches += res.launches.size();
                ++l.images;
                Scope v(tr, "verify", Layer::kBench);
                rep.check(res.table == refs[i]);
            }
            l.cycle_ms.push_back(cycle);
        }
        return l;
    };

    double overhead = 0;
    const Loop loop = timed_window(
        ctx, run_loop, [](const Loop& l) { return mean(l.cycle_ms); },
        overhead);

    simt::BufferPool::Stats pool_after;
    {
        Scope s(tr, "simt.pool_stats", Layer::kSimt);
        pool_after = rt->pool_stats();
    }

    const double exec_total_ms = sum(loop.exec_ms[0]) + sum(loop.exec_ms[1]);
    const double n_images = double(loop.images);
    double bytes = 0;
    for (int i = 0; i < 2; ++i)
        bytes += computed_bytes(kPairs[i].dtypes) *
                 double(loop.exec_ms[i].size());
    std::uint64_t within = 0;
    for (const double c : loop.cycle_ms)
        within += c <= kCycleLimitMs ? 1 : 0;

    rep.put("setup_s", median(setup_s), "s");
    rep.put("mpix_s", n_images * kPixels / 1e6 / (exec_total_ms / 1000), "Mpix/s");
    rep.put("p50_ms", median(loop.cycle_ms), "ms");
    rep.put("tail_ms", percentile(loop.cycle_ms, 90), "ms");
    rep.put("slo_share", double(within) / double(loop.cycle_ms.size()),
            "share");

    const double exec_p50[2] = {median(loop.exec_ms[0]),
                                median(loop.exec_ms[1])};
    rep.put("runtime.plan_cold_ms", median(plan_ms), "ms");
    for (int i = 0; i < 2; ++i)
        rep.put(std::string("runtime.execute_p50_ms.") + kPairs[i].name,
                exec_p50[i], "ms");
    rep.put("runtime.launches_per_image", double(loop.launches) / n_images,
            "count");
    rep.put("simt.computed_bytes_per_image", bytes / n_images, "bytes");
    const double gbps = bytes / (exec_total_ms / 1000) / 1e9;
    rep.put("simt.computed_gbps", gbps, "GB/s");
    rep.put("pool.steady_allocations",
            double(pool_after.allocations - pool_before.allocations),
            "count");
    rep.put("pool.high_water_mb",
            double(pool_after.high_water_bytes) / (1024.0 * 1024.0), "MiB");
    rep.put("oracle.mpix_s", 2 * kPixels / 1e6 / (ref_ms / 1000), "Mpix/s");
    rep.put("runtime.speedup_vs_serial", ref_ms / (exec_p50[0] + exec_p50[1]),
            "x");

    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "samples: %zu cycles (%zu images); resolved %s/%s and "
                  "%s/%s",
                  loop.cycle_ms.size(), loop.images,
                  std::string(to_string(plans[0].algorithm())).c_str(),
                  std::string(to_string(plans[0].backend())).c_str(),
                  std::string(to_string(plans[1].algorithm())).c_str(),
                  std::string(to_string(plans[1].backend())).c_str());
    rep.note(buf);

    if (ctx.trace) {
        // Cold probes on fresh runtimes: what certification and the cost
        // model's calibration alone cost for the two resolved configs.
        double certify_ms = 0;
        const auto cert_rt = new_runtime(kThreads);
        const auto model_rt = new_runtime(kThreads);
        for (int i = 0; i < 2; ++i) {
            const auto t0 = Clock::now();
            {
                Scope s(tr, "runtime.certify", Layer::kRuntime);
                (void)cert_rt->certify(plans[i].algorithm(),
                                       request(kPairs[i].dtypes));
            }
            certify_ms += ms_since(t0);
            Scope s(tr, "model.predict_wall_us", Layer::kModel);
            (void)model_rt->cost_model().predict_wall_us(
                plans[i].algorithm(), kPairs[i].dtypes, kSide, kSide,
                plans[i].backend());
        }
        rep.put("runtime.certify_ms", certify_ms, "ms");
        rep.put("host.copy_gbps", host_gbps, "GB/s");
        rep.put("simt.bw_share", host_gbps > 0 ? gbps / host_gbps : 0,
                "share");
        rep.put("trace.overhead_share", overhead, "share");
    }
    return rep;
}

} // namespace perfbench
