// Block-scoped shared (scratchpad) memory with bank-conflict accounting.
//
// A SharedMemory arena belongs to one thread block.  Kernels obtain typed
// views with `alloc<T>(name, count)`; the name makes the allocation idempotent
// across the block's warps, mirroring CUDA's one-`__shared__`-array-per-block
// semantics even though every warp coroutine executes the declaration.
// Re-declaring a name with a different extent OR a different element type
// aborts (the latter would silently type-pun the arena).
//
// Every warp-wide load/store is analyzed for bank conflicts
// (simt/access_analysis.hpp) and reported to the active PerfCounters sink,
// which is how the simulator observes the paper's central claim that the
// 32x33 padded layout (Alg. 5 line 2) is conflict free while a 32x32 layout
// serializes 32-way on column access.  When a HazardChecker is installed
// (Engine::Options::check), every active lane's access also feeds the
// per-element shadow state behind the racecheck-style hazard reports,
// keyed by (allocation, element index).
#pragma once

#include "core/check.hpp"
#include "simt/access_analysis.hpp"
#include "simt/hazard_checker.hpp"
#include "simt/lane_vec.hpp"
#include "simt/profiler.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <source_location>
#include <string>
#include <string_view>
#include <typeindex>
#include <typeinfo>
#include <vector>

namespace satgpu::simt {

template <typename T>
class SmemView;

class SharedMemory {
public:
    explicit SharedMemory(std::int64_t capacity_bytes)
        : arena_(static_cast<std::size_t>(capacity_bytes))
    {
    }

    /// Named idempotent allocation: the first call allocates `count` elements
    /// of T; subsequent calls with the same name return the same storage
    /// (and must request the same element type and extent).
    template <typename T>
    [[nodiscard]] SmemView<T> alloc(std::string_view name, std::int64_t count);

    [[nodiscard]] std::int64_t bytes_used() const noexcept { return used_; }
    [[nodiscard]] std::int64_t capacity() const noexcept
    {
        return static_cast<std::int64_t>(arena_.size());
    }

    /// Return the arena to its freshly constructed state for the next
    /// block: every byte an earlier block could have written (all of
    /// [0, bytes_used())) reads zero again and no named allocation
    /// survives.  Costs O(bytes used), not O(capacity).
    void reset() noexcept
    {
        std::fill_n(arena_.begin(), used_, std::byte{0});
        used_ = 0;
        named_.clear();
    }

private:
    struct Allocation {
        std::int64_t offset;
        std::int64_t bytes;
        std::int64_t count;   // element count of the declaring alloc<T>
        std::type_index type; // element type of the declaring alloc<T>
    };

    [[nodiscard]] const std::pair<const std::string, Allocation>&
    allocate_named(std::string_view name, std::int64_t bytes,
                   std::int64_t count, std::int64_t alignment,
                   std::type_index type)
    {
        if (auto it = named_.find(name); it != named_.end()) {
            SATGPU_CHECK(it->second.type == type,
                         "shared-memory allocation re-declared with a "
                         "different element type");
            SATGPU_CHECK(it->second.bytes == bytes &&
                             it->second.count == count,
                         "shared-memory allocation re-declared with a "
                         "different extent");
            return *it;
        }
        // At least the element's own alignment (so SmemView::base()'s
        // reinterpret_cast is valid for over-aligned types), and at least 8
        // so the historical layout -- which the bank-conflict goldens
        // depend on -- is unchanged for every alignof(T) <= 8 type.
        const std::int64_t align = std::max<std::int64_t>(alignment, 8);
        const std::int64_t offset = (used_ + align - 1) / align * align;
        SATGPU_CHECK(offset + bytes <= capacity(),
                     "shared memory capacity exceeded");
        used_ = offset + bytes;
        const auto [it, inserted] = named_.emplace(
            std::string(name), Allocation{offset, bytes, count, type});
        return *it;
    }

    template <typename T>
    friend class SmemView;

    std::vector<std::byte> arena_;
    std::int64_t used_ = 0;
    std::map<std::string, Allocation, std::less<>> named_;
};

template <typename T>
class SmemView {
public:
    SmemView() = default;

    [[nodiscard]] std::int64_t size() const noexcept { return count_; }

    /// Warp-wide store: lane l writes val[l] at element index idx[l].
    /// `site` defaults to the caller's location; the profiler's
    /// bank-conflict hotspot table and the hazard checker's reports are
    /// keyed by it.
    void store(const LaneVec<std::int64_t>& idx, const LaneVec<T>& val,
               LaneMask active = kFullMask,
               std::source_location site = SATGPU_SITE)
    {
        T* const b = base();
        HazardChecker* const hc = current_hazard_checker();
        if (current_counters() == nullptr && hc == nullptr) {
            // Uninstrumented fast path (the native backend's fresh worker
            // threads): only the bounds-checked data movement.
            for (int l = 0; l < kWarpSize; ++l) {
                if (!lane_active(active, l))
                    continue;
                const std::int64_t i = idx.get(l);
                SATGPU_CHECK(i >= 0 && i < count_,
                             "smem store out of bounds");
                b[i] = val.get(l);
            }
            return;
        }
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = idx.get(l);
            SATGPU_CHECK(i >= 0 && i < count_, "smem store out of bounds");
            b[i] = val.get(l);
            addrs[static_cast<std::size_t>(l)] =
                base_offset_ + i * static_cast<std::int64_t>(sizeof(T));
            if (hc)
                hc->record_smem_access(
                    /*is_store=*/true,
                    {base_offset_, count_, sizeof(T), i}, name_, site);
        }
        if (PerfCounters* c = current_counters()) {
            const auto passes = static_cast<std::uint64_t>(
                smem_conflict_passes(addrs, active, sizeof(T)));
            const auto bytes = static_cast<std::uint64_t>(
                                   active_lane_count(active)) *
                               sizeof(T);
            c->smem_st_req += 1;
            c->smem_st_trans += passes;
            c->smem_bytes_st += bytes;
            if (Profiler* p = current_profiler())
                p->record_smem(site, /*is_store=*/true, passes, bytes);
        }
    }

    /// Warp-wide load: lane l reads element idx[l]; inactive lanes get T{}.
    [[nodiscard]] LaneVec<T> load(const LaneVec<std::int64_t>& idx,
                                  LaneMask active = kFullMask,
                                  std::source_location site = SATGPU_SITE)
        const
    {
        LaneVec<T> r{};
        const T* const b = base();
        HazardChecker* const hc = current_hazard_checker();
        if (current_counters() == nullptr && hc == nullptr) {
            // Uninstrumented fast path; see store().
            for (int l = 0; l < kWarpSize; ++l) {
                if (!lane_active(active, l))
                    continue;
                const std::int64_t i = idx.get(l);
                SATGPU_CHECK(i >= 0 && i < count_, "smem load out of bounds");
                r.set(l, b[i]);
            }
            return r;
        }
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = idx.get(l);
            SATGPU_CHECK(i >= 0 && i < count_, "smem load out of bounds");
            r.set(l, b[i]);
            addrs[static_cast<std::size_t>(l)] =
                base_offset_ + i * static_cast<std::int64_t>(sizeof(T));
            if (hc)
                hc->record_smem_access(
                    /*is_store=*/false,
                    {base_offset_, count_, sizeof(T), i}, name_, site);
        }
        if (PerfCounters* c = current_counters()) {
            const auto passes = static_cast<std::uint64_t>(
                smem_conflict_passes(addrs, active, sizeof(T)));
            const auto bytes = static_cast<std::uint64_t>(
                                   active_lane_count(active)) *
                               sizeof(T);
            c->smem_ld_req += 1;
            c->smem_ld_trans += passes;
            c->smem_bytes_ld += bytes;
            if (Profiler* p = current_profiler())
                p->record_smem(site, /*is_store=*/false, passes, bytes);
        }
        return r;
    }

private:
    friend class SharedMemory;

    SmemView(SharedMemory* owner, std::int64_t offset, std::int64_t count,
             std::string_view name)
        : owner_(owner), base_offset_(offset), count_(count), name_(name)
    {
    }

    [[nodiscard]] T* base() const noexcept
    {
        SATGPU_EXPECTS(owner_ != nullptr);
        std::byte* const p = owner_->arena_.data() + base_offset_;
        SATGPU_EXPECTS(reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0);
        return reinterpret_cast<T*>(p);
    }

    SharedMemory* owner_ = nullptr;
    std::int64_t base_offset_ = 0;
    std::int64_t count_ = 0;
    std::string_view name_; // points at the owner's allocation-map key
};

template <typename T>
SmemView<T> SharedMemory::alloc(std::string_view name, std::int64_t count)
{
    SATGPU_EXPECTS(count >= 0);
    const auto& [stored_name, a] = allocate_named(
        name, count * static_cast<std::int64_t>(sizeof(T)), count,
        static_cast<std::int64_t>(alignof(T)), std::type_index(typeid(T)));
    return SmemView<T>(this, a.offset, count, stored_name);
}

} // namespace satgpu::simt
