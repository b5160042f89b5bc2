// Concurrency battery for sat::Service (sat/service.hpp): bit-exactness
// against the serial oracle and the direct Runtime path for every worker
// count, plan-cache hit/miss invariants, coalescing behavior, backpressure
// under both admission policies, draining shutdown, and per-plan buffer
// partition bounds.  The CI TSan job builds and runs this binary with
// -DSATGPU_SANITIZE=thread; every test here must stay data-race-free by
// construction, not by luck -- keep shapes small and synchronization
// through the Service API only.
#include "core/random_fill.hpp"
#include "sat/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

namespace sat = satgpu::sat;
namespace obs = satgpu::sat::obs;
namespace simt = satgpu::simt;
using satgpu::Dtype;
using satgpu::DtypePair;

namespace {

/// Small mixed trace: ragged shapes, several dtype pairs, all cheap enough
/// for the 1-core TSan job.
struct Case {
    std::int64_t h;
    std::int64_t w;
    DtypePair pair;
    sat::Algorithm algo; // concrete: kAuto calibration has its own test
};

constexpr Case kCases[] = {
    {33, 17, {Dtype::u8_, Dtype::u32_}, sat::Algorithm::kBrltScanRow},
    {48, 48, {Dtype::u8_, Dtype::i32_}, sat::Algorithm::kScanRowColumn},
    {64, 31, {Dtype::f32_, Dtype::f32_}, sat::Algorithm::kScanTransposeScan},
    {16, 40, {Dtype::u32_, Dtype::u32_}, sat::Algorithm::kOpencvLike},
};

sat::AnyMatrix image_for(std::size_t i)
{
    const Case& c = kCases[i % std::size(kCases)];
    return sat::AnyMatrix::random(c.pair.in, c.h, c.w,
                                  /*seed=*/1000 + static_cast<std::uint64_t>(i));
}

sat::Service::Request request_for(std::size_t i, sat::AnyMatrix image)
{
    const Case& c = kCases[i % std::size(kCases)];
    sat::Service::Request req;
    req.image = std::move(image);
    req.out = c.pair.out;
    req.algorithm = c.algo;
    return req;
}

/// Expected table for trace index i via the direct Runtime path (plan +
/// execute, no service).  The service contract is BIT identity with this
/// for every dtype, float included.
sat::AnyMatrix direct_table(sat::Runtime& rt, std::size_t i,
                            const sat::AnyMatrix& image)
{
    const Case& c = kCases[i % std::size(kCases)];
    const auto plan = rt.plan({.height = c.h,
                               .width = c.w,
                               .dtypes = c.pair,
                               .algorithm = c.algo});
    return plan.execute(image).table;
}

} // namespace

// ------------------------------------------------------------- identity ----

// The core determinism contract: for worker counts 1, 2, 7 and
// hardware_concurrency, every table the service returns is bit-identical
// to the direct Runtime plan+execute path, and (for integer outputs)
// bit-identical to the serial CPU oracle.
TEST(ServiceIdentity, BitExactForEveryWorkerCount)
{
    constexpr std::size_t kN = 12;
    std::vector<sat::AnyMatrix> images;
    for (std::size_t i = 0; i < kN; ++i)
        images.push_back(image_for(i));

    sat::Runtime direct;
    std::vector<sat::AnyMatrix> expected;
    for (std::size_t i = 0; i < kN; ++i)
        expected.push_back(direct_table(direct, i, images[i]));

    const int hw = static_cast<int>(
        std::max(1U, std::thread::hardware_concurrency()));
    for (const int workers : {1, 2, 7, hw}) {
        sat::Service::Options opt;
        opt.workers = workers;
        opt.max_wave = 4;
        opt.max_linger = std::chrono::microseconds(200);
        sat::Service svc(opt);

        std::vector<std::future<sat::AnyMatrix>> futures;
        for (std::size_t i = 0; i < kN; ++i)
            futures.push_back(
                svc.submit(request_for(i, sat::AnyMatrix(images[i]))));
        for (std::size_t i = 0; i < kN; ++i) {
            const sat::AnyMatrix got = futures[i].get();
            EXPECT_TRUE(got == expected[i])
                << "workers " << workers << " request " << i;
            const Case& c = kCases[i % std::size(kCases)];
            if (c.pair.out != Dtype::f32_ && c.pair.out != Dtype::f64_) {
                EXPECT_TRUE(got == direct.reference(images[i], c.pair.out))
                    << "workers " << workers << " request " << i;
            }
        }
        const auto stats = svc.stats();
        EXPECT_EQ(stats.submitted, kN);
        EXPECT_EQ(stats.completed, kN);
        EXPECT_EQ(stats.rejected, 0U);
    }
}

// N client threads submitting concurrently: results stay bit-exact and
// every future completes exactly once.
TEST(ServiceClients, ConcurrentSubmittersStayBitExact)
{
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kPerClient = 6;

    // Precompute inputs and expected tables serially.
    std::vector<sat::AnyMatrix> images;
    std::vector<sat::AnyMatrix> expected;
    sat::Runtime direct;
    for (std::size_t i = 0; i < kClients * kPerClient; ++i) {
        images.push_back(image_for(i));
        expected.push_back(direct_table(direct, i, images[i]));
    }

    sat::Service::Options opt;
    opt.workers = 3;
    opt.max_wave = 4;
    opt.max_linger = std::chrono::microseconds(200);
    sat::Service svc(opt);

    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (std::size_t j = 0; j < kPerClient; ++j) {
                const std::size_t i = c * kPerClient + j;
                auto fut =
                    svc.submit(request_for(i, sat::AnyMatrix(images[i])));
                if (!(fut.get() == expected[i]))
                    mismatches.fetch_add(1);
            }
        });
    for (auto& t : clients)
        t.join();

    EXPECT_EQ(mismatches.load(), 0U);
    const auto stats = svc.stats();
    EXPECT_EQ(stats.completed, kClients * kPerClient);
    EXPECT_EQ(stats.rejected, 0U);
}

// ----------------------------------------------------------- plan cache ----

TEST(ServicePlanCache, SecondSubmissionNeverReplans)
{
    sat::Service::Options opt;
    opt.workers = 1;
    sat::Service svc(opt);

    const auto a1 = sat::AnyMatrix::random(Dtype::u8_, 48, 32, 1);
    (void)svc.submit(sat::AnyMatrix(a1), Dtype::u32_).get();
    auto stats = svc.stats();
    EXPECT_EQ(stats.plan_misses, 1U);
    EXPECT_EQ(stats.plan_hits, 0U);
    EXPECT_EQ(stats.plans_instantiated, 1U);

    // Same shape + dtype again: a cache hit, no new plan.
    const auto a2 = sat::AnyMatrix::random(Dtype::u8_, 48, 32, 2);
    (void)svc.submit(sat::AnyMatrix(a2), Dtype::u32_).get();
    stats = svc.stats();
    EXPECT_EQ(stats.plan_misses, 1U);
    EXPECT_EQ(stats.plan_hits, 1U);
    EXPECT_EQ(stats.plans_instantiated, 1U);

    // A different shape is a different key.
    const auto b = sat::AnyMatrix::random(Dtype::u8_, 32, 48, 3);
    (void)svc.submit(sat::AnyMatrix(b), Dtype::u32_).get();
    stats = svc.stats();
    EXPECT_EQ(stats.plan_misses, 2U);
    EXPECT_EQ(stats.plan_hits, 1U);
    EXPECT_EQ(stats.plans_instantiated, 2U);
    EXPECT_EQ(svc.plan_cache_size(), 2U);
}

// With multiple workers a key may be instantiated once per worker, but
// never more -- and single-worker services instantiate exactly once per
// miss (the strict ISSUE invariant).
TEST(ServicePlanCache, InstantiationsBoundedByWorkersTimesMisses)
{
    sat::Service::Options opt;
    opt.workers = 3;
    opt.max_wave = 1; // maximize the chance several workers touch the key
    sat::Service svc(opt);

    std::vector<std::future<sat::AnyMatrix>> futs;
    for (std::uint64_t s = 0; s < 9; ++s)
        futs.push_back(svc.submit(
            sat::AnyMatrix::random(Dtype::u8_, 40, 24, s), Dtype::u32_));
    for (auto& f : futs)
        (void)f.get();

    const auto stats = svc.stats();
    EXPECT_EQ(stats.plan_misses, 1U);
    EXPECT_EQ(stats.plan_hits, 8U);
    EXPECT_GE(stats.plans_instantiated, 1U);
    EXPECT_LE(stats.plans_instantiated, 3U);
}

// kAuto resolution is shared through the cache entry: every worker's plan
// resolves to the same concrete algorithm, and tables stay bit-exact.
TEST(ServicePlanCache, AutoResolutionConsistentAcrossWorkers)
{
    sat::Service::Options opt;
    opt.workers = 2;
    opt.max_wave = 1;
    sat::Service svc(opt);

    sat::Runtime direct;
    const auto plan = direct.plan({.height = 32,
                                   .width = 32,
                                   .dtypes = {Dtype::u8_, Dtype::u32_},
                                   .algorithm = sat::Algorithm::kAuto});

    std::vector<sat::AnyMatrix> images;
    std::vector<std::future<sat::AnyMatrix>> futs;
    for (std::uint64_t s = 0; s < 8; ++s) {
        images.push_back(sat::AnyMatrix::random(Dtype::u8_, 32, 32, s));
        sat::Service::Request req;
        req.image = images.back();
        req.out = Dtype::u32_;
        req.algorithm = sat::Algorithm::kAuto;
        futs.push_back(svc.submit(std::move(req)));
    }
    for (std::size_t i = 0; i < futs.size(); ++i)
        EXPECT_TRUE(futs[i].get() == plan.execute(images[i]).table)
            << "image " << i;
}

// ----------------------------------------------------------- coalescing ----

TEST(ServiceCoalescing, QueuedSameKeyRequestsFuseIntoOneWave)
{
    sat::Service::Options opt;
    opt.workers = 1;
    opt.max_wave = 8;
    opt.max_linger = std::chrono::microseconds(200'000);
    sat::Service svc(opt);

    // Warm-up: resolves the plan and parks the worker back on the queue.
    (void)svc.submit(sat::AnyMatrix::random(Dtype::u8_, 48, 48, 0),
                     Dtype::u32_)
        .get();

    // Burst of 6 same-key requests.  However the worker interleaves with
    // the submissions, the 200 ms linger window collects all of them into
    // a single wave.
    std::vector<sat::AnyMatrix> images;
    std::vector<std::future<sat::AnyMatrix>> futs;
    for (std::uint64_t s = 1; s <= 6; ++s) {
        images.push_back(sat::AnyMatrix::random(Dtype::u8_, 48, 48, s));
        futs.push_back(svc.submit(sat::AnyMatrix(images.back()), Dtype::u32_));
    }
    sat::Runtime direct;
    for (std::size_t i = 0; i < futs.size(); ++i)
        EXPECT_TRUE(futs[i].get() ==
                    direct.reference(images[i], Dtype::u32_));

    const auto stats = svc.stats();
    EXPECT_EQ(stats.completed, 7U);
    EXPECT_EQ(stats.waves, 2U); // warm-up + one fused wave
    EXPECT_EQ(stats.max_wave_size, 6U);
    EXPECT_EQ(stats.fused_requests, 6U);
    EXPECT_EQ(stats.plan_misses, 1U);
    EXPECT_EQ(stats.plan_hits, 6U);
    EXPECT_EQ(stats.plans_instantiated, 1U); // fusion never re-plans
}

TEST(ServiceCoalescing, MaxWaveOneNeverFuses)
{
    sat::Service::Options opt;
    opt.workers = 1;
    opt.max_wave = 1;
    sat::Service svc(opt);

    std::vector<std::future<sat::AnyMatrix>> futs;
    for (std::uint64_t s = 0; s < 5; ++s)
        futs.push_back(svc.submit(
            sat::AnyMatrix::random(Dtype::u8_, 24, 24, s), Dtype::u32_));
    for (auto& f : futs)
        (void)f.get();

    const auto stats = svc.stats();
    EXPECT_EQ(stats.waves, 5U);
    EXPECT_EQ(stats.max_wave_size, 1U);
    EXPECT_EQ(stats.fused_requests, 0U);
}

// --------------------------------------------------------- backpressure ----

TEST(ServiceBackpressure, RejectPolicyFailsFastWithoutDeadlock)
{
    sat::Service::Options opt;
    opt.workers = 1;
    opt.max_wave = 1;
    opt.max_queue = 2;
    opt.policy = sat::Service::AdmissionPolicy::kReject;
    sat::Service svc(opt);

    // Flood: far more work than a depth-2 queue absorbs.  Requests are
    // heavy enough (128x128) that the single worker cannot drain between
    // submissions.
    constexpr std::size_t kN = 10;
    std::vector<std::future<sat::AnyMatrix>> futs;
    for (std::uint64_t s = 0; s < kN; ++s)
        futs.push_back(svc.submit(
            sat::AnyMatrix::random(Dtype::u8_, 128, 128, s), Dtype::u32_));

    std::size_t ok = 0;
    std::size_t rejected = 0;
    for (auto& f : futs) {
        try {
            (void)f.get();
            ++ok;
        } catch (const sat::QueueFullError&) {
            ++rejected;
        }
    }
    EXPECT_EQ(ok + rejected, kN);
    EXPECT_GE(rejected, 1U) << "a depth-2 queue must reject under flood";
    const auto stats = svc.stats();
    EXPECT_EQ(stats.completed, ok);
    EXPECT_EQ(stats.rejected, rejected);
    // Rejected requests never touch the plan cache.
    EXPECT_EQ(stats.plan_misses + stats.plan_hits, ok);
}

TEST(ServiceBackpressure, BlockPolicyCompletesEverything)
{
    sat::Service::Options opt;
    opt.workers = 2;
    opt.max_wave = 2;
    opt.max_queue = 2; // tiny: submitters must block and unblock
    opt.policy = sat::Service::AdmissionPolicy::kBlock;
    sat::Service svc(opt);

    constexpr std::size_t kClients = 3;
    constexpr std::size_t kPerClient = 5;
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (std::size_t j = 0; j < kPerClient; ++j) {
                auto fut = svc.submit(
                    sat::AnyMatrix::random(
                        Dtype::u8_, 40, 40,
                        static_cast<std::uint64_t>(c * 100 + j)),
                    Dtype::u32_);
                try {
                    (void)fut.get();
                } catch (...) {
                    failures.fetch_add(1);
                }
            }
        });
    for (auto& t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0U);
    const auto stats = svc.stats();
    EXPECT_EQ(stats.completed, kClients * kPerClient);
    EXPECT_EQ(stats.rejected, 0U);
    // Admission control actually bit: the queue never grew past its cap.
    EXPECT_LE(stats.max_queue_depth, 2U);
}

TEST(ServiceBackpressure, OversizedRequestAdmittedWhenQueueEmpty)
{
    sat::Service::Options opt;
    opt.workers = 1;
    opt.max_queue_bytes = 64; // smaller than any request below
    opt.policy = sat::Service::AdmissionPolicy::kReject;
    sat::Service svc(opt);

    // The byte cap only gates a NON-empty queue; a single oversized
    // request must still be servable (otherwise it could never run).
    const auto image = sat::AnyMatrix::random(Dtype::u8_, 32, 32, 7);
    auto fut = svc.submit(sat::AnyMatrix(image), Dtype::u32_);
    sat::Runtime direct;
    EXPECT_TRUE(fut.get() == direct.reference(image, Dtype::u32_));
}

// ------------------------------------------------------------- shutdown ----

TEST(ServiceShutdown, DestructorDrainsAdmittedRequests)
{
    std::vector<sat::AnyMatrix> images;
    std::vector<std::future<sat::AnyMatrix>> futs;
    {
        sat::Service::Options opt;
        opt.workers = 2;
        opt.max_wave = 4;
        sat::Service svc(opt);
        for (std::uint64_t s = 0; s < 5; ++s) {
            images.push_back(sat::AnyMatrix::random(Dtype::u8_, 36, 20, s));
            futs.push_back(
                svc.submit(sat::AnyMatrix(images.back()), Dtype::u32_));
        }
        // Destroyed with work still in flight: ~Service must drain, not
        // drop.
    }
    sat::Runtime direct;
    for (std::size_t i = 0; i < futs.size(); ++i) {
        ASSERT_TRUE(futs[i].valid());
        EXPECT_TRUE(futs[i].get() == direct.reference(images[i], Dtype::u32_))
            << "image " << i;
    }
}

// ----------------------------------------------------- stats snapshots -----

// Stats (and the metrics counters backing them) must form a consistent
// snapshot at EVERY observable point, not just after a drain: a sampler
// thread hammering stats()/counter_total() concurrently with submitters
// and workers must never see completed+failed ahead of submitted, or a
// cache-accounting total ahead of admissions.  The CI TSan job runs this
// binary, so any unsynchronized Stats access also fails as a data race.
TEST(ServiceStats, SnapshotsConsistentAtEveryObservablePoint)
{
    obs::MetricsRegistry registry;
    sat::Service::Options opt;
    opt.workers = 2;
    opt.max_wave = 4;
    opt.metrics = &registry;
    sat::Service svc(opt);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> violations{0};
    std::thread sampler([&] {
        std::uint64_t prev_submitted = 0;
        std::uint64_t prev_completed = 0;
        while (!done.load(std::memory_order_relaxed)) {
            const auto s = svc.stats();
            if (s.completed + s.failed > s.submitted)
                violations.fetch_add(1);
            if (s.plan_hits + s.plan_misses > s.submitted)
                violations.fetch_add(1);
            if (s.submitted < prev_submitted || s.completed < prev_completed)
                violations.fetch_add(1); // monotone under one service
            prev_submitted = s.submitted;
            prev_completed = s.completed;
            // The metrics mirror obeys the same partial order: a request
            // is counted submitted before it can ever count completed.
            // (completed read FIRST: submitted is monotone, so a request
            // landing between the two reads can only widen the gap.)
            const auto m_done = registry.counter_total(
                "satgpu_service_completed_total");
            const auto m_sub = registry.counter_total(
                "satgpu_service_submitted_total");
            if (m_done > m_sub)
                violations.fetch_add(1);
        }
    });

    constexpr std::size_t kClients = 3;
    constexpr std::size_t kPerClient = 5;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (std::size_t j = 0; j < kPerClient; ++j) {
                const std::size_t i = c * kPerClient + j;
                (void)svc.submit(request_for(i, image_for(i))).get();
            }
        });
    for (auto& t : clients)
        t.join();
    done.store(true);
    sampler.join();

    EXPECT_EQ(violations.load(), 0U);
    const auto s = svc.stats();
    EXPECT_EQ(s.submitted, kClients * kPerClient);
    EXPECT_EQ(s.completed + s.failed, s.submitted);
}

// ----------------------------------------------------------- partitions ----

TEST(ServicePartitions, DistinctPlansHaveBoundedDisjointHighWater)
{
    sat::Service::Options opt;
    opt.workers = 1;
    opt.max_wave = 4;
    opt.max_linger = std::chrono::microseconds(100'000);
    sat::Service svc(opt);

    // BRLT-ScanRow leases one intermediate per image; kAuto may resolve
    // these small shapes to an in-place baseline that leases nothing.
    constexpr auto kAlgo = sat::Algorithm::kBrltScanRow;
    const auto request = [](std::int64_t h, std::int64_t w,
                            std::uint64_t seed) {
        return sat::Service::Request{
            .image = sat::AnyMatrix::random(Dtype::u8_, h, w, seed),
            .out = Dtype::u32_,
            .algorithm = kAlgo};
    };
    const auto submit_burst = [&](std::int64_t h, std::int64_t w) {
        // Warm-up then burst, so the burst coalesces into one max-wave
        // wave and the partition high-water reflects fused execution.
        (void)svc.submit(request(h, w, 0)).get();
        std::vector<std::future<sat::AnyMatrix>> futs;
        for (std::uint64_t s = 1; s <= 4; ++s)
            futs.push_back(svc.submit(request(h, w, s)));
        for (auto& f : futs)
            (void)f.get();
    };
    submit_burst(64, 48);
    submit_burst(48, 64);

    sat::Runtime direct;
    for (const auto& [h, w] : {std::pair{64L, 48L}, std::pair{48L, 64L}}) {
        const sat::PlanRequest req{.height = h,
                                   .width = w,
                                   .dtypes = {Dtype::u8_, Dtype::u32_},
                                   .algorithm = kAlgo};
        const auto key = sat::plan_key(req);
        const auto high_water = svc.plan_high_water_bytes(key);
        EXPECT_GT(high_water, 0U) << h << "x" << w;
        // A wave of K holds at most K workspaces at once.
        const auto per_image =
            static_cast<std::uint64_t>(direct.plan(req).workspace_bytes());
        EXPECT_LE(high_water, 4 * per_image) << h << "x" << w;
    }
}
