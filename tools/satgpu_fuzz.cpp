// satgpu_fuzz: seeded randomized differential fuzzer for the SAT runtime.
//
// Each seed deterministically samples one configuration -- dtype pair,
// algorithm (incl. kAuto), shape up to 4096 x 4096 (log-uniform, so ragged
// small shapes dominate but the tail reaches full size), optional macro-tile
// geometry, scheduler thread count, batch size -- executes it through
// sat::Runtime, and demands the result be BIT-EXACT against the serial CPU
// oracle (sat::Runtime::reference).  Inputs are integer-valued with a
// magnitude cap shrunk by image area so float SATs stay exactly
// representable and every scan order agrees bitwise.
//
// Modes:
//   satgpu_fuzz --seeds N     run seeds 0..N-1 (CI smoke uses N=64)
//   satgpu_fuzz --seed S      reproduce exactly one seed, verbosely
//   satgpu_fuzz --service ... route every case through a sat::Service
//                             whose worker count / wave size / linger /
//                             queue depth are sampled per seed, instead
//                             of a direct Runtime plan
//   satgpu_fuzz --backend-diff  additionally execute each case through a
//                             Backend::kNative plan and demand the native
//                             table equal the simulator's bit for bit
//   satgpu_fuzz --query-diff  attach a sampled SAT-consumer query
//                             (box/thresh/wsum/hist) to each case and run
//                             it BOTH ways -- the fused tiled pipeline and
//                             materialize-then-consume -- demanding each
//                             output equal the serial query oracle bit for
//                             bit
//   satgpu_fuzz --stream-diff replay a random frame sequence (each frame a
//                             random pixel-delta mutation of the last)
//                             through an incremental SlidingWindowSat AND
//                             its from-scratch recompute twin, demanding
//                             both window aggregates equal the serial
//                             window oracle bit for bit after EVERY push;
//                             configurations holding both the SAT and the
//                             stream certificate replay through native
//                             twins of both as well
//
// On mismatch the tool prints the failing seed plus the full sampled
// configuration and exits 1; re-running `satgpu_fuzz --seed S` replays that
// single case (sampling consumes the RNG in a fixed order, so one seed
// always maps to the same configuration on every build).
#include "core/random_fill.hpp"
#include "sat/integral_video.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>

namespace {

using namespace satgpu;

/// One fully sampled fuzz case.
struct FuzzConfig {
    std::uint64_t seed = 0;
    DtypePair pair{Dtype::u8_, Dtype::u32_};
    sat::Algorithm algo = sat::Algorithm::kAuto;
    std::int64_t h = 1, w = 1;
    sat::TileGeometry tile{}; ///< disabled => untiled path
    int threads = 1;
    int batch = 1;
    int fill_hi = 15; ///< input magnitude cap (see header comment)
};

/// Log-uniform side length in [1, 4096]: exponent uniform in [0, 12].
std::int64_t sample_side(std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> lg(0.0, 12.0);
    const auto s = static_cast<std::int64_t>(std::exp2(lg(rng)));
    return std::clamp<std::int64_t>(s, 1, 4096);
}

FuzzConfig sample(std::uint64_t seed)
{
    // Sampling order is fixed: changing it changes what every seed means,
    // which invalidates recorded failing seeds.  Append new knobs at the end.
    std::mt19937_64 rng(seed);
    FuzzConfig c;
    c.seed = seed;
    c.pair = kPaperDtypePairs[std::uniform_int_distribution<std::size_t>(
        0, std::size(kPaperDtypePairs) - 1)(rng)];
    // 7 concrete algorithms + kAuto at ~1/8 probability.
    const auto ai = std::uniform_int_distribution<std::size_t>(
        0, std::size(sat::kAllAlgorithms))(rng);
    c.algo = ai < std::size(sat::kAllAlgorithms) ? sat::kAllAlgorithms[ai]
                                                 : sat::Algorithm::kAuto;
    c.h = sample_side(rng);
    c.w = sample_side(rng);
    if (std::uniform_int_distribution<int>(0, 1)(rng)) { // ~50% tiled
        constexpr std::int64_t kSides[] = {32, 64, 128, 256};
        c.tile.tile_h = kSides[std::uniform_int_distribution<std::size_t>(
            0, std::size(kSides) - 1)(rng)];
        c.tile.tile_w = kSides[std::uniform_int_distribution<std::size_t>(
            0, std::size(kSides) - 1)(rng)];
        c.tile.carry_fanout = std::uniform_int_distribution<int>(1, 4)(rng);
    }
    constexpr int kThreads[] = {1, 2, 7};
    c.threads = kThreads[std::uniform_int_distribution<std::size_t>(
        0, std::size(kThreads) - 1)(rng)];
    c.batch = std::uniform_int_distribution<int>(1, 3)(rng);
    // f32 sums are exact only up to 2^24; shrink the fill cap so
    // area * hi stays under it.  Wider accumulators keep the default.
    if (c.pair.out == Dtype::f32_) {
        const std::int64_t cap = (std::int64_t{1} << 24) / (c.h * c.w);
        c.fill_hi = static_cast<int>(std::clamp<std::int64_t>(cap, 1, 15));
    }
    return c;
}

std::string describe(const FuzzConfig& c)
{
    std::ostringstream os;
    os << pair_name(c.pair) << ' '
       << (c.algo == sat::Algorithm::kAuto ? "auto"
                                           : sat::to_string(c.algo))
       << ' ' << c.h << 'x' << c.w;
    if (c.tile.enabled())
        os << " tile " << c.tile.tile_h << 'x' << c.tile.tile_w << " fanout "
           << c.tile.carry_fanout;
    else
        os << " untiled";
    os << " threads " << c.threads << " batch " << c.batch << " fill 0.."
       << c.fill_hi;
    return os.str();
}

sat::AnyMatrix random_image(Dtype t, std::int64_t h, std::int64_t w,
                            std::uint64_t seed, int hi)
{
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

/// Runtimes are cached per thread count: kAuto plans share one calibrated
/// cost model and the buffer pool keeps recycling across seeds, which is
/// exactly the steady-state serving configuration worth fuzzing.
sat::Runtime& runtime_for(int threads)
{
    static std::map<int, std::unique_ptr<sat::Runtime>> cache;
    auto& slot = cache[threads];
    if (!slot)
        slot = std::make_unique<sat::Runtime>(
            simt::Engine::Options{.record_history = false,
                                  .num_threads = threads});
    return *slot;
}

/// Service-shape knobs for --service mode.  Sampled from a SEPARATE rng
/// stream: drawing them from the base rng would shift every knob sampled
/// after them and silently re-meaning all recorded failing seeds.
struct ServiceConfig {
    int workers = 1;
    int wave = 1;
    int linger_us = 0;
    std::size_t queue = 8;
};

ServiceConfig sample_service(std::uint64_t seed)
{
    std::mt19937_64 rng(seed ^ 0x5e41ce5eedf00dull);
    ServiceConfig s;
    constexpr int kWorkers[] = {1, 2, 3};
    s.workers = kWorkers[std::uniform_int_distribution<std::size_t>(
        0, std::size(kWorkers) - 1)(rng)];
    constexpr int kWave[] = {1, 2, 4, 8};
    s.wave = kWave[std::uniform_int_distribution<std::size_t>(
        0, std::size(kWave) - 1)(rng)];
    constexpr int kLinger[] = {0, 500};
    s.linger_us = kLinger[std::uniform_int_distribution<std::size_t>(
        0, std::size(kLinger) - 1)(rng)];
    // Depths below the batch size exercise kBlock backpressure.
    constexpr std::size_t kQueue[] = {2, 8, 64};
    s.queue = kQueue[std::uniform_int_distribution<std::size_t>(
        0, std::size(kQueue) - 1)(rng)];
    return s;
}

/// --service analog of run_one: same sampled case, same images, but
/// submitted through a per-seed sat::Service and demanded bit-exact
/// against the same from-scratch serial oracle.  Also pins the service's
/// own invariants: one plan miss per seed, a hit for every later
/// submission, everything completed.
bool run_one_service(const FuzzConfig& c, bool verbose)
{
    const ServiceConfig sc = sample_service(c.seed);
    sat::Service::Options so;
    so.workers = sc.workers;
    so.engine_threads = c.threads;
    so.max_wave = sc.wave;
    so.max_linger = std::chrono::microseconds(sc.linger_us);
    so.max_queue = sc.queue;
    so.policy = sat::Service::AdmissionPolicy::kBlock;
    sat::Service svc(so);

    std::vector<sat::AnyMatrix> images;
    std::vector<std::future<sat::AnyMatrix>> futures;
    for (int b = 0; b < c.batch; ++b) {
        const std::uint64_t fill_seed =
            c.seed * 1000003u + static_cast<std::uint64_t>(b);
        images.push_back(
            random_image(c.pair.in, c.h, c.w, fill_seed, c.fill_hi));
        sat::Service::Request req;
        req.image = images.back();
        req.out = c.pair.out;
        req.algorithm = c.algo;
        req.tile = c.tile;
        futures.push_back(svc.submit(std::move(req)));
    }

    sat::Runtime& oracle = runtime_for(1);
    for (int b = 0; b < c.batch; ++b) {
        const auto ub = static_cast<std::size_t>(b);
        if (!(futures[ub].get() == oracle.reference(images[ub], c.pair.out))) {
            std::cout << "FAIL seed " << c.seed << " batch image " << b
                      << " (service workers " << sc.workers << " wave "
                      << sc.wave << " linger " << sc.linger_us << "us queue "
                      << sc.queue << "): " << describe(c)
                      << "\n  reproduce: satgpu_fuzz --service --seed "
                      << c.seed << '\n';
            return false;
        }
    }

    const auto stats = svc.stats();
    const auto batch = static_cast<std::uint64_t>(c.batch);
    if (stats.plan_misses != 1 || stats.plan_hits != batch - 1 ||
        stats.completed != batch) {
        std::cout << "FAIL seed " << c.seed
                  << ": service counter invariant (misses "
                  << stats.plan_misses << " hits " << stats.plan_hits
                  << " completed " << stats.completed << " for batch "
                  << c.batch << ")\n  reproduce: satgpu_fuzz --service "
                  << "--seed " << c.seed << '\n';
        return false;
    }

    // Metrics invariants: at quiescence (every future joined above) the
    // registry must agree with Stats, every admitted request must have
    // been observed end-to-end, and wave-size histogram mass must account
    // for every submission exactly once.
    const sat::obs::MetricsRegistry& m = svc.metrics();
    const std::uint64_t m_submitted =
        m.counter_total("satgpu_service_submitted_total");
    const std::uint64_t m_completed =
        m.counter_total("satgpu_service_completed_total");
    const std::uint64_t m_rejected =
        m.counter_total("satgpu_service_rejected_total");
    const std::uint64_t m_failed =
        m.counter_total("satgpu_service_failed_total");
    const auto e2e = m.histogram_total("satgpu_service_e2e_us");
    const auto qwait = m.histogram_total("satgpu_service_queue_wait_us");
    const auto wsize = m.histogram_total("satgpu_service_wave_size");
    const bool metrics_ok =
        m_submitted == stats.submitted && m_completed == stats.completed &&
        m_rejected == stats.rejected && m_failed == stats.failed &&
        m_submitted == m_completed + m_rejected + m_failed &&
        e2e.count == m_completed && qwait.count == m_submitted &&
        wsize.count == stats.waves && wsize.sum == m_completed;
    if (!metrics_ok) {
        std::cout << "FAIL seed " << c.seed
                  << ": metrics invariant (submitted " << m_submitted
                  << " completed " << m_completed << " rejected "
                  << m_rejected << " failed " << m_failed << " e2e.count "
                  << e2e.count << " queue_wait.count " << qwait.count
                  << " wave_size count/sum " << wsize.count << "/"
                  << wsize.sum << " vs stats submitted " << stats.submitted
                  << " completed " << stats.completed << " waves "
                  << stats.waves << ")\n  reproduce: satgpu_fuzz --service "
                  << "--seed " << c.seed << '\n';
        return false;
    }
    if (verbose)
        std::cout << "seed " << c.seed << ": " << describe(c)
                  << " via service workers " << sc.workers << " wave "
                  << sc.wave << " linger " << sc.linger_us << "us queue "
                  << sc.queue << " -> " << stats.waves << " wave(s), ok\n";
    return true;
}

/// Query spec for --query-diff, sampled from a SEPARATE rng stream for
/// the same reason as ServiceConfig.  Histogram queries are only servable
/// on the 8u -> 32u pair; other pairs remap that draw to a box filter so
/// every seed stays a valid case.
sat::QuerySpec sample_query(std::uint64_t seed, DtypePair pair)
{
    std::mt19937_64 rng(seed ^ 0x9ce5a7f00d5eedull);
    const int kind = std::uniform_int_distribution<int>(0, 3)(rng);
    const auto radius = std::uniform_int_distribution<std::int64_t>(0, 9)(rng);
    if (kind == 1) {
        constexpr double kFrac[] = {0.5, 0.85, 1.0};
        return sat::AdaptiveThresholdSpec{
            radius, kFrac[std::uniform_int_distribution<std::size_t>(
                        0, std::size(kFrac) - 1)(rng)]};
    }
    if (kind == 2) {
        const auto wh = std::uniform_int_distribution<std::int64_t>(1, 12)(rng);
        const auto ww = std::uniform_int_distribution<std::int64_t>(1, 12)(rng);
        return sat::WindowSumSpec{wh, ww};
    }
    if (kind == 3 && pair.in == Dtype::u8_ && pair.out == Dtype::u32_) {
        constexpr int kBins[] = {2, 4, 8, 16};
        return sat::RegionHistogramSpec{
            kBins[std::uniform_int_distribution<std::size_t>(
                0, std::size(kBins) - 1)(rng)],
            std::min<std::int64_t>(radius, 6)};
    }
    return sat::BoxFilterSpec{radius};
}

/// --query-diff analog of run_one: attach a sampled query to the case and
/// run it through BOTH consumer paths -- the fused tiled pipeline (global
/// SAT never materialized) and materialize-then-consume -- each demanded
/// bit-exact against the serial query oracle.  Exactness holds for float
/// dtypes too: integer-valued fills keep every window sum exactly
/// representable, and both paths apply the same final per-pixel op.
bool run_one_query_diff(const FuzzConfig& c, bool verbose)
{
    // Query pipelines run several kernels per macro tile; cap the sides so
    // the CI sweep stays fast while still covering ragged multi-tile grids.
    FuzzConfig qc = c;
    qc.h = std::min<std::int64_t>(qc.h, 512);
    qc.w = std::min<std::int64_t>(qc.w, 512);
    const sat::QuerySpec query = sample_query(c.seed, c.pair);

    sat::Runtime& rt = runtime_for(qc.threads);
    const auto fused = rt.plan_query({.height = qc.h,
                                      .width = qc.w,
                                      .dtypes = qc.pair,
                                      .algorithm = qc.algo,
                                      .tile = qc.tile,
                                      .query = query,
                                      .query_mode = sat::QueryMode::kFused});
    const auto mat =
        rt.plan_query({.height = qc.h,
                       .width = qc.w,
                       .dtypes = qc.pair,
                       .algorithm = qc.algo,
                       .tile = qc.tile,
                       .query = query,
                       .query_mode = sat::QueryMode::kMaterialize});
    for (int b = 0; b < qc.batch; ++b) {
        const std::uint64_t fill_seed =
            qc.seed * 1000003u + static_cast<std::uint64_t>(b);
        const auto image =
            random_image(qc.pair.in, qc.h, qc.w, fill_seed, qc.fill_hi);
        const auto want = rt.query_reference(image, qc.pair.out, query);
        const auto fused_res = fused.execute(image);
        if (!(fused_res.table == want)) {
            std::cout << "FAIL seed " << qc.seed << " batch image " << b
                      << ": fused query vs oracle: "
                      << sat::query_label(query) << " on " << describe(qc)
                      << " (" << qc.h << 'x' << qc.w << " after clamp)"
                      << "\n  reproduce: satgpu_fuzz --query-diff --seed "
                      << qc.seed << '\n';
            return false;
        }
        const auto mat_res = mat.execute(image);
        if (!(mat_res.table == want)) {
            std::cout << "FAIL seed " << qc.seed << " batch image " << b
                      << ": materialized query vs oracle: "
                      << sat::query_label(query) << " on " << describe(qc)
                      << " (" << qc.h << 'x' << qc.w << " after clamp)"
                      << "\n  reproduce: satgpu_fuzz --query-diff --seed "
                      << qc.seed << '\n';
            return false;
        }
    }
    if (verbose)
        std::cout << "seed " << qc.seed << ": " << sat::query_label(query)
                  << " on " << describe(qc) << " -> fused and materialized "
                  << "both bit-exact vs the query oracle\n";
    return true;
}

/// Streaming-shape knobs for --stream-diff, sampled from a SEPARATE rng
/// stream like ServiceConfig (appending stream knobs to the base rng would
/// re-mean every recorded failing seed of the other modes).
struct StreamConfig {
    std::int64_t window = 1; ///< sliding-window length T
    int extra = 0;           ///< pushes beyond the first full window
    int deltas = 0;          ///< random pixel mutations per successive frame
};

StreamConfig sample_stream(std::uint64_t seed)
{
    std::mt19937_64 rng(seed ^ 0x57ead1ffc0de5ull);
    StreamConfig s;
    s.window = std::uniform_int_distribution<std::int64_t>(1, 8)(rng);
    s.extra = std::uniform_int_distribution<int>(0, 4)(rng);
    s.deltas = std::uniform_int_distribution<int>(1, 64)(rng);
    return s;
}

/// --stream-diff analog of run_one: replay a sampled frame sequence (frame
/// t is frame t-1 with `deltas` random pixel changes, the temporal
/// coherence the incremental path exists for) through an incremental
/// SlidingWindowSat and its from-scratch recompute twin, demanding both
/// aggregates equal the serial window oracle bit for bit after every push
/// -- including the warm-up pushes before the first wraparound and every
/// ring slot reuse after it.  When the configuration certifies for a
/// native stream (Runtime::plan_stream), native twins of both modes run
/// the same sequence and face the same oracle.
bool run_one_stream_diff(const FuzzConfig& c, bool verbose)
{
    // The recompute twin and the serial oracle both rebuild T SATs per
    // push; cap the sides so the sweep stays fast.  The fill cap was
    // computed for the UNCLAMPED area, so window sums stay exactly
    // representable: T * 256^2 * 15 < 2^24.
    FuzzConfig sc = c;
    sc.h = std::min<std::int64_t>(sc.h, 256);
    sc.w = std::min<std::int64_t>(sc.w, 256);
    // The streaming kernel layer takes a concrete algorithm (kAuto is a
    // Runtime-level policy); remap the kAuto draw like histogram queries
    // remap non-8u pairs.
    if (sc.algo == sat::Algorithm::kAuto)
        sc.algo = sat::Algorithm::kBrltScanRow;
    const StreamConfig st = sample_stream(c.seed);
    std::mt19937_64 delta_rng(c.seed ^ 0xde17a5eedf00d1ull);
    const bool native =
        runtime_for(sc.threads)
            .plan_stream({.height = sc.h,
                          .width = sc.w,
                          .dtypes = sc.pair,
                          .algorithm = sc.algo,
                          .tile = sc.tile,
                          .backend = sat::Backend::kNative})
            .backend() == sat::Backend::kNative;

    return visit_paper_pair(sc.pair, [&](auto ti, auto to) {
        using Tin = typename decltype(ti)::type;
        using Tout = typename decltype(to)::type;
        simt::Engine::Options eo{.record_history = false};
        eo.num_threads = sc.threads;
        simt::Engine eng(eo);
        const sat::Options opt{.algorithm = sc.algo};
        sat::SlidingWindowSat<Tout, Tin> inc(
            eng, st.window, sc.h, sc.w, opt, sc.tile,
            sat::StreamUpdateMode::kIncremental);
        sat::SlidingWindowSat<Tout, Tin> rec(
            eng, st.window, sc.h, sc.w, opt, sc.tile,
            sat::StreamUpdateMode::kRecompute);
        const sat::Options nat_opt{.algorithm = sc.algo,
                                   .backend = sat::Backend::kNative};
        std::optional<sat::SlidingWindowSat<Tout, Tin>> inc_nat, rec_nat;
        if (native) {
            inc_nat.emplace(eng, st.window, sc.h, sc.w, nat_opt, sc.tile,
                            sat::StreamUpdateMode::kIncremental);
            rec_nat.emplace(eng, st.window, sc.h, sc.w, nat_opt, sc.tile,
                            sat::StreamUpdateMode::kRecompute);
        }

        std::vector<Matrix<Tin>> frames;
        Matrix<Tin> frame(sc.h, sc.w);
        fill_random_ints(frame, sc.seed * 1000003u, sc.fill_hi);
        const std::int64_t pushes = st.window + st.extra;
        for (std::int64_t t = 0; t < pushes; ++t) {
            if (t > 0)
                for (int d = 0; d < st.deltas; ++d) {
                    const auto y = std::uniform_int_distribution<
                        std::int64_t>(0, sc.h - 1)(delta_rng);
                    const auto x = std::uniform_int_distribution<
                        std::int64_t>(0, sc.w - 1)(delta_rng);
                    frame(y, x) = static_cast<Tin>(
                        std::uniform_int_distribution<int>(
                            0, sc.fill_hi)(delta_rng));
                }
            frames.push_back(frame);
            inc.push(frame);
            rec.push(frame);
            if (native) {
                inc_nat->push(frame);
                rec_nat->push(frame);
            }

            std::vector<const Matrix<Tin>*> in_window;
            for (std::int64_t u =
                     std::max<std::int64_t>(0, t - st.window + 1);
                 u <= t; ++u)
                in_window.push_back(&frames[static_cast<std::size_t>(u)]);
            const Matrix<Tout> want = sat::window_sat_serial<Tout, Tin>(
                std::span<const Matrix<Tin>* const>(in_window));
            const auto fail = [&](const char* which) {
                std::cout << "FAIL seed " << sc.seed << " push " << t
                          << ": " << which
                          << " window differs from serial oracle: "
                          << describe(sc) << " (" << sc.h << 'x' << sc.w
                          << " after clamp) window " << st.window
                          << " extra " << st.extra << " deltas "
                          << st.deltas
                          << "\n  reproduce: satgpu_fuzz --stream-diff "
                          << "--seed " << sc.seed << '\n';
                return false;
            };
            if (!(inc.window_table() == want))
                return fail("incremental");
            if (!(rec.window_table() == want))
                return fail("recompute");
            if (native && !(inc_nat->window_table() == want))
                return fail("native incremental");
            if (native && !(rec_nat->window_table() == want))
                return fail("native recompute");
        }
        if (verbose)
            std::cout << "seed " << sc.seed << ": " << describe(sc)
                      << " window " << st.window << " extra " << st.extra
                      << " deltas " << st.deltas << " -> " << pushes
                      << " push(es), incremental and recompute"
                      << (native ? " (simulator and native)" : "")
                      << " bit-exact\n";
        return true;
    });
}

/// --backend-diff analog of run_one: plan the same sampled case twice --
/// once pinned to the simulator, once requesting the native backend --
/// and demand the two tables agree bit for bit (the simulator table is
/// additionally checked against the serial oracle, so agreement can never
/// hide a shared bug).  Configs the native backend refuses (uncertified
/// or unsupported algorithms) resolve back to the simulator; the diff is
/// then trivially exact, but the refusal path itself gets exercised.
bool run_one_backend_diff(const FuzzConfig& c, bool verbose)
{
    sat::Runtime& rt = runtime_for(c.threads);
    const auto sim_plan = rt.plan({.height = c.h,
                                   .width = c.w,
                                   .dtypes = c.pair,
                                   .algorithm = c.algo,
                                   .tile = c.tile,
                                   .backend = sat::Backend::kSim});
    const auto nat_plan = rt.plan({.height = c.h,
                                   .width = c.w,
                                   .dtypes = c.pair,
                                   .algorithm = c.algo,
                                   .tile = c.tile,
                                   .backend = sat::Backend::kNative});
    for (int b = 0; b < c.batch; ++b) {
        const std::uint64_t fill_seed =
            c.seed * 1000003u + static_cast<std::uint64_t>(b);
        const auto image =
            random_image(c.pair.in, c.h, c.w, fill_seed, c.fill_hi);
        const auto sim_res = sim_plan.execute(image);
        const auto nat_res = nat_plan.execute(image);
        if (!(sim_res.table == rt.reference(image, c.pair.out))) {
            std::cout << "FAIL seed " << c.seed << " batch image " << b
                      << ": simulator vs oracle: " << describe(c)
                      << "\n  reproduce: satgpu_fuzz --backend-diff --seed "
                      << c.seed << '\n';
            return false;
        }
        if (!(nat_res.table == sim_res.table)) {
            std::cout << "FAIL seed " << c.seed << " batch image " << b
                      << ": " << sat::to_string(nat_plan.backend())
                      << " backend differs from simulator: " << describe(c)
                      << "\n  resolved algorithms: sim "
                      << sat::to_string(sim_plan.algorithm()) << ", native "
                      << sat::to_string(nat_plan.algorithm())
                      << "\n  reproduce: satgpu_fuzz --backend-diff --seed "
                      << c.seed << '\n';
            return false;
        }
    }
    if (verbose)
        std::cout << "seed " << c.seed << ": " << describe(c) << " -> sim "
                  << sat::to_string(sim_plan.algorithm()) << " vs "
                  << sat::to_string(nat_plan.backend()) << " "
                  << sat::to_string(nat_plan.algorithm())
                  << (nat_plan.certified() ? " (certified)" : "")
                  << ", bit-exact\n";
    return true;
}

/// Run one sampled case; returns true when every batch image matches the
/// serial oracle bit for bit.
bool run_one(const FuzzConfig& c, bool verbose)
{
    sat::Runtime& rt = runtime_for(c.threads);
    const auto plan = rt.plan({.height = c.h,
                               .width = c.w,
                               .dtypes = c.pair,
                               .algorithm = c.algo,
                               .tile = c.tile});
    for (int b = 0; b < c.batch; ++b) {
        // Distinct deterministic fill per batch index.
        const std::uint64_t fill_seed =
            c.seed * 1000003u + static_cast<std::uint64_t>(b);
        const auto image =
            random_image(c.pair.in, c.h, c.w, fill_seed, c.fill_hi);
        const auto res = plan.execute(image);
        if (!(res.table == rt.reference(image, c.pair.out))) {
            std::cout << "FAIL seed " << c.seed << " batch image " << b
                      << ": " << describe(c) << "\n  resolved algorithm: "
                      << sat::to_string(plan.algorithm())
                      << "\n  reproduce: satgpu_fuzz --seed " << c.seed
                      << '\n';
            return false;
        }
    }
    if (verbose)
        std::cout << "seed " << c.seed << ": " << describe(c)
                  << " -> resolved " << sat::to_string(plan.algorithm())
                  << ", ok\n";
    return true;
}

} // namespace

int main(int argc, char** argv)
{
    std::uint64_t seeds = 32;
    std::int64_t single = -1;
    bool service = false;
    bool backend_diff = false;
    bool query_diff = false;
    bool stream_diff = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--seeds" && i + 1 < argc) {
            seeds = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seed" && i + 1 < argc) {
            single = std::strtoll(argv[++i], nullptr, 10);
        } else if (arg == "--service") {
            service = true;
        } else if (arg == "--backend-diff") {
            backend_diff = true;
        } else if (arg == "--query-diff") {
            query_diff = true;
        } else if (arg == "--stream-diff") {
            stream_diff = true;
        } else {
            std::cout
                << "usage: satgpu_fuzz [--service | --backend-diff |\n"
                   "                    --query-diff | --stream-diff]\n"
                   "                   [--seeds N] [--seed S]\n"
                   "  --seeds N: run seeds 0..N-1 (default 32); exit 1 on\n"
                   "             the first differential mismatch\n"
                   "  --seed S:  replay one seed verbosely (the reproduce\n"
                   "             command printed on failure)\n"
                   "  --service: route each case through a sat::Service\n"
                   "             with per-seed worker/wave/linger/queue\n"
                   "             knobs instead of a direct Runtime plan\n"
                   "  --backend-diff: run each case on the simulator AND\n"
                   "             via a Backend::kNative plan; demand the\n"
                   "             tables be bit-identical (and the sim\n"
                   "             table right vs the serial oracle)\n"
                   "  --query-diff: attach a sampled SAT-consumer query to\n"
                   "             each case and run it both fused and\n"
                   "             materialized; demand each output equal\n"
                   "             the serial query oracle bit for bit\n"
                   "  --stream-diff: replay a random frame-delta sequence\n"
                   "             through an incremental sliding-window SAT\n"
                   "             and its from-scratch recompute twin\n"
                   "             (plus native twins of both when the\n"
                   "             configuration certifies); demand all\n"
                   "             equal the serial window oracle bit for\n"
                   "             bit after every push\n";
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }
    if (static_cast<int>(service) + static_cast<int>(backend_diff) +
            static_cast<int>(query_diff) + static_cast<int>(stream_diff) >
        1) {
        std::cerr << "--service, --backend-diff, --query-diff and "
                     "--stream-diff are mutually exclusive\n";
        return 2;
    }
    const auto run = [&](const FuzzConfig& c, bool verbose) {
        if (backend_diff)
            return run_one_backend_diff(c, verbose);
        if (query_diff)
            return run_one_query_diff(c, verbose);
        if (stream_diff)
            return run_one_stream_diff(c, verbose);
        return service ? run_one_service(c, verbose) : run_one(c, verbose);
    };

    if (single >= 0)
        return run(sample(static_cast<std::uint64_t>(single)), true) ? 0 : 1;

    for (std::uint64_t s = 0; s < seeds; ++s)
        if (!run(sample(s), /*verbose=*/false))
            return 1;
    std::cout << "fuzz: " << seeds << " seed(s) bit-exact against the "
              << (backend_diff
                      ? "serial oracle (native vs simulator diff)\n"
                  : query_diff
                      ? "serial oracle (fused vs materialized query diff)\n"
                  : stream_diff
                      ? "serial oracle (incremental vs recompute stream "
                        "diff, native twins where certified)\n"
                      : (service ? "serial oracle (service mode)\n"
                                 : "serial oracle\n"));
    return 0;
}
