// query_fused: one closed-loop caller running Runtime::plan_query plans
// (native, 2048^2 8u->32u) through a weighted rotation of the four SAT
// consumers.  The fused plans read the SAT they build tile by tile and
// never materialize the table: the consume side of the layer batch_large
// builds with.
#include "bench.hpp"

#include "model/cost_model.hpp"
#include "sat/query_spec.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

using namespace satgpu;
using sat::AnyMatrix;
using sat::Plan;
using sat::PlanRequest;
using sat::Runtime;

namespace {

constexpr std::int64_t kSide = 2048;
constexpr double kPixels = double(kSide) * double(kSide);
constexpr DtypePair kPair{Dtype::u8_, Dtype::u32_};
/// Latency limit of one query run (a histogram run takes ~20 box runs).
constexpr double kRunLimitMs = 5000;

struct Spec {
    const char* kind;
    const char* label;
    /// Runs per rotation: one histogram run costs about twenty box runs,
    /// so these weights give each spec a similar share of wall time.
    int weight;
};
constexpr Spec kSpecs[4] = {{"box", "box:r=4", 20},
                            {"thresh", "thresh:r=8,f=0.85", 20},
                            {"wsum", "wsum:h=8,w=8", 20},
                            {"hist", "hist:b=16,r=4", 1}};

PlanRequest request(int spec)
{
    return {.height = kSide,
            .width = kSide,
            .dtypes = kPair,
            .algorithm = sat::Algorithm::kAuto,
            .backend = sat::Backend::kNative,
            .query = *sat::parse_query_spec(kSpecs[spec].label)};
}

/// The rotation order: the histogram run first, then the three cheap
/// specs interleaved.
std::vector<int> rotation()
{
    std::vector<int> order{3};
    for (int k = 0; k < kSpecs[0].weight; ++k)
        for (int s = 0; s < 3; ++s)
            order.push_back(s);
    return order;
}

struct Loop {
    std::vector<double> exec_ms[4];
    std::vector<double> all_ms;
};

} // namespace

Report run_query_fused(const Context& ctx)
{
    Tracer& tr = *ctx.tracer;
    Report rep;

    const AnyMatrix image =
        make_image(Dtype::u8_, kSide, kSide, ctx.seed * 3 + 1, 255);

    AnyMatrix refs[4];
    double ref_ms = 0;
    {
        Runtime oracle_rt;
        for (int s = 0; s < 4; ++s) {
            const auto t0 = Clock::now();
            Scope sc(tr, "oracle.query_reference", Layer::kOracle);
            refs[s] = oracle_rt.query_reference(image, kPair.out,
                                                request(s).query);
            ref_ms += ms_since(t0);
        }
    }

    std::unique_ptr<Runtime> rt;
    Plan plans[4];
    double warm_ms[4] = {};
    std::vector<double> setup_s, plan_ms;
    for (int r = 0; r < kSetupRuns; ++r) {
        for (Plan& p : plans)
            p = {};
        rt.reset();
        AnyMatrix warm[4];
        {
            Scope sc(tr, "setup", Layer::kBench);
            const auto t0 = Clock::now();
            rt = new_runtime(kThreads);
            const auto tp = Clock::now();
            for (int s = 0; s < 4; ++s) {
                Scope sp(tr, "query.plan_query", Layer::kQuery);
                plans[s] = rt->plan_query(request(s));
            }
            plan_ms.push_back(ms_since(tp));
            for (int s = 0; s < 4; ++s) {
                const auto tw = Clock::now();
                Scope se(tr, "query.execute", Layer::kQuery);
                warm[s] = plans[s].execute(image).table;
                warm_ms[s] = ms_since(tw);
            }
            setup_s.push_back(ms_since(t0) / 1000.0);
        }
        for (int s = 0; s < 4; ++s)
            rep.check(warm[s] == refs[s]);
    }

    simt::BufferPool::Stats pool_before;
    {
        Scope sc(tr, "simt.pool_stats", Layer::kSimt);
        pool_before = rt->pool_stats();
    }

    const std::vector<int> order = rotation();
    double rotation_ms = 0;
    for (const int s : order)
        rotation_ms += warm_ms[s];
    // Whole rotations only, so every run weighs the specs identically.
    const auto run_loop = [&](double seconds) {
        const long rotations =
            std::max(1L, std::lround(seconds * 1000 / rotation_ms));
        Loop l;
        for (long k = 0; k < rotations; ++k) {
            for (const int s : order) {
                AnyMatrix out;
                const auto t0 = Clock::now();
                {
                    Scope sc(tr, "query.execute", Layer::kQuery);
                    out = plans[s].execute(image).table;
                }
                const double ms = ms_since(t0);
                l.exec_ms[s].push_back(ms);
                l.all_ms.push_back(ms);
                Scope v(tr, "verify", Layer::kBench);
                rep.check(out == refs[s]);
            }
        }
        return l;
    };

    double overhead = 0;
    const Loop loop = timed_window(
        ctx, run_loop, [](const Loop& l) { return mean(l.all_ms); },
        overhead);

    simt::BufferPool::Stats pool_after;
    {
        Scope sc(tr, "simt.pool_stats", Layer::kSimt);
        pool_after = rt->pool_stats();
    }

    const double runs = double(loop.all_ms.size());
    std::uint64_t within = 0;
    for (const double ms : loop.all_ms)
        within += ms <= kRunLimitMs ? 1 : 0;

    rep.put("setup_s", median(setup_s), "s");
    rep.put("mpix_s", runs * kPixels / 1e6 / (sum(loop.all_ms) / 1000),
            "Mpix/s");
    rep.put("p50_ms", median(loop.all_ms), "ms");
    rep.put("tail_ms", percentile(loop.all_ms, 90), "ms");
    rep.put("slo_share", double(within) / runs, "share");

    rep.put("runtime.plan_cold_ms", median(plan_ms), "ms");
    double p50_total = 0;
    int fused = 0;
    for (int s = 0; s < 4; ++s) {
        const double p50 = median(loop.exec_ms[s]);
        p50_total += p50;
        fused += plans[s].query_fused() ? 1 : 0;
        rep.put(std::string("query.execute_p50_ms.") + kSpecs[s].kind, p50,
                "ms");
    }
    rep.put("query.fused_share", fused / 4.0, "share");
    rep.put("query.oracle_mpix_s", 4 * kPixels / 1e6 / (ref_ms / 1000),
            "Mpix/s");
    rep.put("query.speedup_vs_serial", ref_ms / p50_total, "x");
    rep.put("pool.steady_allocations",
            double(pool_after.allocations - pool_before.allocations),
            "count");
    rep.put("pool.high_water_mb",
            double(pool_after.high_water_bytes) / (1024.0 * 1024.0), "MiB");

    char buf[120];
    std::snprintf(buf, sizeof buf,
                  "samples: %zu runs (%zu histogram); %d of 4 plans fused; "
                  "resolved",
                  loop.all_ms.size(), loop.exec_ms[3].size(), fused);
    std::string line = buf;
    for (const Plan& p : plans) {
        line += ' ';
        line += to_string(p.algorithm());
        line += '/';
        line += to_string(p.backend());
    }
    rep.note(line);

    if (ctx.trace) {
        // Cold probes on fresh runtimes: certification of each plan's
        // config, and the cost model's calibration for the tile shape.
        double certify_ms = 0;
        const auto cert_rt = new_runtime(kThreads);
        for (int s = 0; s < 4; ++s) {
            PlanRequest req = request(s);
            req.tile = plans[s].tile();
            const auto t0 = Clock::now();
            {
                Scope sc(tr, "runtime.certify", Layer::kRuntime);
                (void)cert_rt->certify(plans[s].algorithm(), req);
            }
            certify_ms += ms_since(t0);
        }
        const auto model_rt = new_runtime(kThreads);
        const sat::TileGeometry& tile = plans[0].tile();
        {
            Scope sc(tr, "model.predict_wall_us", Layer::kModel);
            (void)model_rt->cost_model().predict_wall_us(
                plans[0].algorithm(), kPair,
                tile.enabled() ? tile.tile_h : kSide,
                tile.enabled() ? tile.tile_w : kSide, plans[0].backend());
        }
        rep.put("runtime.certify_ms", certify_ms, "ms");
        rep.put("trace.overhead_share", overhead, "share");
    }
    return rep;
}

} // namespace perfbench
