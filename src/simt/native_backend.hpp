// Native vectorized execution backend: the non-coroutine lowering of the
// warp interface (docs/backends.md).
//
// The simulator executes kernels as warp coroutines with a thread-local
// instrumentation sink behind every lane operation.  This backend runs the
// SAME kernel bodies -- the shared phase helpers the SAT kernels are
// written against -- as plain loops: no coroutines, no counters, no shadow
// state.  Every warp primitive (LaneVec arithmetic, shfl_*, ballot/any/all,
// SmemView, DeviceBuffer) already degrades to a bounds-checked plain loop
// when no thread-local sink is installed, so the native path reuses those
// functions verbatim; what changes is only the schedule.
//
// Schedule: where the simulator interleaves warp coroutines between
// barriers, the native backend runs each block PHASE-MAJOR -- for every
// barrier-to-barrier phase, a plain loop over the block's warps.  That
// reordering is observably identical exactly when no phase contains an
// unsynchronized cross-warp dependency, which is what the hazard checker's
// certificate establishes (sat::Runtime only selects this backend for
// hazard-certified plans).  Blocks are independent, as on hardware, and
// are distributed over a pool of FRESH host threads: a fresh thread has no
// thread-local counter/profiler/checker/block state, so instrumentation is
// structurally absent rather than merely disabled.
#pragma once

#include "simt/dim3.hpp"
#include "simt/engine.hpp"
#include "simt/lane_vec.hpp"
#include "simt/shared_memory.hpp"

#include <functional>
#include <string_view>
#include <vector>

namespace satgpu::simt {

/// The native lowering of WarpCtx: same geometry and shared-memory surface
/// (kernel phase helpers are templated over the context type), but no
/// barrier -- synchronization is the caller's phase loop.
class NativeWarpCtx {
public:
    NativeWarpCtx(Dim3 block_idx, LaunchConfig cfg, int warp_id,
                  SharedMemory* smem)
        : block_idx_(block_idx), cfg_(cfg), warp_id_(warp_id), smem_(smem)
    {
    }

    // -- Geometry (mirrors WarpCtx) ----------------------------------------
    [[nodiscard]] Dim3 block_idx() const noexcept { return block_idx_; }
    [[nodiscard]] Dim3 block_dim() const noexcept { return cfg_.block; }
    [[nodiscard]] Dim3 grid_dim() const noexcept { return cfg_.grid; }
    [[nodiscard]] int warp_id() const noexcept { return warp_id_; }
    [[nodiscard]] int warps_per_block() const
    {
        return static_cast<int>(cfg_.warps_per_block());
    }

    /// laneId as a vector {0..31}.
    [[nodiscard]] static LaneVec<std::int64_t> lane()
    {
        return LaneVec<std::int64_t>::lane_index();
    }

    // -- Shared memory ------------------------------------------------------
    template <typename T>
    [[nodiscard]] SmemView<T> smem_alloc(std::string_view name,
                                         std::int64_t count)
    {
        return smem_->alloc<T>(name, count);
    }

private:
    friend class NativeBlockCtx; // rebinds block_idx_ on reset()

    Dim3 block_idx_;
    LaunchConfig cfg_;
    int warp_id_;
    SharedMemory* smem_;
};

/// One block's native execution context: owns the block's shared-memory
/// arena and hands out a NativeWarpCtx per warp.  Confined to the one host
/// thread running the block, like the simulator's per-block state;
/// native_launch builds one per worker and reset()s it between blocks.
class NativeBlockCtx {
public:
    NativeBlockCtx(Dim3 block_idx, const LaunchConfig& cfg,
                   std::int64_t smem_capacity_bytes)
        : smem_(smem_capacity_bytes)
    {
        const int wc = static_cast<int>(cfg.warps_per_block());
        warps_.reserve(static_cast<std::size_t>(wc));
        for (int i = 0; i < wc; ++i)
            warps_.emplace_back(block_idx, cfg, i, &smem_);
    }

    [[nodiscard]] Dim3 block_idx() const noexcept
    {
        return warps_.front().block_idx();
    }
    [[nodiscard]] int warps_per_block() const noexcept
    {
        return static_cast<int>(warps_.size());
    }
    [[nodiscard]] NativeWarpCtx& warp(int i)
    {
        return warps_[static_cast<std::size_t>(i)];
    }
    [[nodiscard]] std::int64_t smem_bytes_used() const noexcept
    {
        return smem_.bytes_used();
    }

    /// Rebind the context to another block of the same launch.  The block
    /// sees what a freshly constructed context would show it: an all-zero
    /// arena with no named allocations.
    void reset(Dim3 block_idx) noexcept
    {
        smem_.reset();
        for (NativeWarpCtx& w : warps_)
            w.block_idx_ = block_idx;
    }

private:
    SharedMemory smem_;
    std::vector<NativeWarpCtx> warps_;
};

/// A native block program: invoked once per block with that block's
/// context; runs every warp of the block to completion (phase-major).
/// Invoked concurrently from fresh worker threads, one block at a time per
/// thread, so it must be callable from any thread.
using NativeBlockProgram = std::function<void(NativeBlockCtx&)>;

/// Execute `program` for every block of `cfg` on a pool of freshly spawned
/// host threads (work-stealing over linear block indices;
/// `opt.num_threads` threads, 0 = hardware concurrency).  Threads are
/// always spawned -- even for one block -- because a fresh thread is the
/// no-instrumentation guarantee: no counter sink, no profiler, no hazard
/// checker, no block identity is installed on it.
///
/// The returned LaunchStats carries the launch geometry and the measured
/// shared-memory peak; every event counter is zero except `blocks` and
/// `warps` (derived from the geometry).  The native path does not model
/// GPU time -- it IS the fast path, measured in wall clock.
///
/// Faults follow Engine::launch's contract: if block programs throw, the
/// fault of the lowest linear block index is rethrown as BlockFault.
[[nodiscard]] LaunchStats native_launch(const Engine::Options& opt,
                                        const KernelInfo& info,
                                        LaunchConfig cfg,
                                        const NativeBlockProgram& program);

} // namespace satgpu::simt
