#include "simt/native_backend.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace satgpu::simt {

namespace {

[[nodiscard]] Dim3 block_from_linear(std::int64_t lin, Dim3 grid) noexcept
{
    return Dim3{lin % grid.x, (lin / grid.x) % grid.y,
                lin / (grid.x * grid.y)};
}

} // namespace

LaunchStats native_launch(const Engine::Options& opt, const KernelInfo& info,
                          LaunchConfig cfg, const NativeBlockProgram& program)
{
    SATGPU_EXPECTS(cfg.grid.x > 0 && cfg.grid.y > 0 && cfg.grid.z > 0);
    SATGPU_EXPECTS(cfg.warps_per_block() > 0);
    const std::int64_t total = cfg.total_blocks();

    const int requested =
        opt.num_threads > 0
            ? opt.num_threads
            : static_cast<int>(
                  std::max(1u, std::thread::hardware_concurrency()));
    const int workers = static_cast<int>(
        std::min<std::int64_t>(std::max(requested, 1), total));

    // First-fault bookkeeping (lowest linear block wins, as in the
    // simulator's scheduler, so fault reports stay deterministic).
    struct Fault {
        std::int64_t linear;
        std::exception_ptr ep;
    };
    std::mutex mu;
    std::optional<Fault> fault;
    std::int64_t smem_peak = 0;

    std::atomic<std::int64_t> next{0};
    auto worker = [&] {
        std::int64_t local_peak = 0;
        // One context per worker, reset before each block: the reset
        // zeroes only the bytes the previous block allocated, where a
        // fresh context would clear the whole smem capacity.
        std::optional<NativeBlockCtx> blk;
        for (;;) {
            const std::int64_t lin =
                next.fetch_add(1, std::memory_order_relaxed);
            if (lin >= total)
                break;
            try {
                const Dim3 idx = block_from_linear(lin, cfg.grid);
                if (blk)
                    blk->reset(idx);
                else
                    blk.emplace(idx, cfg, opt.smem_capacity_bytes);
                program(*blk);
                local_peak = std::max(local_peak, blk->smem_bytes_used());
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!fault || lin < fault->linear)
                    fault = Fault{lin, std::current_exception()};
            }
        }
        const std::lock_guard<std::mutex> lock(mu);
        smem_peak = std::max(smem_peak, local_peak);
    };

    // Always spawn fresh threads -- never run on the caller, whose
    // thread-local instrumentation state is unknown (see header).
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads.emplace_back(worker);
    for (std::thread& t : threads)
        t.join();

    if (fault) {
        try {
            std::rethrow_exception(fault->ep);
        } catch (const BlockFault&) {
            throw; // already wrapped (nested native launches don't re-wrap)
        } catch (const std::exception& e) {
            throw BlockFault(block_from_linear(fault->linear, cfg.grid),
                             info.name, e.what(), fault->ep);
        } catch (...) {
            throw BlockFault(block_from_linear(fault->linear, cfg.grid),
                             info.name, "unknown exception", fault->ep);
        }
    }

    LaunchStats stats;
    stats.info = info;
    stats.config = cfg;
    stats.smem_used_bytes = smem_peak;
    // The native path is uninstrumented by construction: every event
    // counter stays zero except the geometry-derived pair.
    stats.counters.blocks = static_cast<std::uint64_t>(total);
    stats.counters.warps = static_cast<std::uint64_t>(cfg.total_warps());
    return stats;
}

} // namespace satgpu::simt
