// Pooled device-buffer allocation (the simulated cudaMalloc cache).
//
// SAT invocations read their input and write their result in place, but
// most algorithms need one to three full-image intermediate buffers;
// allocating them per call is exactly the churn a production service
// cannot afford (real CUDA allocators synchronize the device).  BufferPool recycles DeviceBuffer<T> storage
// across calls: acquire() hands out a Lease that returns the buffer to the
// pool on destruction, and a reused buffer is re-cleared to T{} so results
// are bit-identical to a freshly value-initialized DeviceBuffer.
//
// Free lists are keyed by (partition, element type, exact element count)
// -- SAT plans run the same shapes repeatedly, so exact matching keeps the
// accounting trivial and the reuse rate at 100% after warm-up (asserted by
// tests).  Partitions are hard walls: a buffer released into partition p
// is only ever handed back to acquisitions in partition p, so concurrent
// clients (the service layer gives every cached plan its own partition)
// can never observe each other's buffers and each partition's high-water
// mark is attributable to exactly one client.  Partition 0 is the default
// and preserves the historical single-pool behavior.
// The pool is mutex-guarded: leases are acquired/released on the host
// side, but engine worker threads may destroy leases captured in warp
// programs, and the TSan job runs over it.
#pragma once

#include "core/check.hpp"
#include "simt/global_memory.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <typeindex>
#include <utility>
#include <vector>

namespace satgpu::simt {

class BufferPool {
public:
    struct Stats {
        std::uint64_t allocations = 0; ///< fresh DeviceBuffer constructions
        std::uint64_t reuses = 0;      ///< acquisitions served from the pool
        std::uint64_t outstanding = 0; ///< leases currently live
        std::uint64_t bytes_allocated = 0; ///< total bytes ever allocated
        std::uint64_t bytes_outstanding = 0; ///< bytes in live leases now
        std::uint64_t high_water_bytes = 0;  ///< peak of bytes_outstanding
    };

    /// Per-partition accounting (same fields, scoped to one partition).
    /// high_water_bytes is the admission-control signal: it bounds the
    /// device footprint one client (one service plan) ever held at once.
    struct PartitionStats {
        std::uint64_t allocations = 0;
        std::uint64_t reuses = 0;
        std::uint64_t outstanding = 0;
        std::uint64_t bytes_outstanding = 0;
        std::uint64_t high_water_bytes = 0;
    };

    /// RAII handle over a pooled DeviceBuffer<T>.  Move-only; returns the
    /// buffer to its pool on destruction.  A default-constructed or
    /// moved-from lease holds nothing.  Leases created by acquire_or_new
    /// with a null pool own the buffer outright and free it on destruction.
    template <typename T>
    class Lease {
    public:
        Lease() = default;
        Lease(Lease&& o) noexcept
            : pool_(std::exchange(o.pool_, nullptr)),
              partition_(o.partition_), buf_(std::move(o.buf_))
        {
        }
        Lease& operator=(Lease&& o) noexcept
        {
            if (this != &o) {
                release();
                pool_ = std::exchange(o.pool_, nullptr);
                partition_ = o.partition_;
                buf_ = std::move(o.buf_);
            }
            return *this;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        ~Lease() { release(); }

        [[nodiscard]] DeviceBuffer<T>& operator*() noexcept { return *buf_; }
        [[nodiscard]] const DeviceBuffer<T>& operator*() const noexcept
        {
            return *buf_;
        }
        [[nodiscard]] DeviceBuffer<T>* operator->() noexcept
        {
            return buf_.get();
        }
        [[nodiscard]] const DeviceBuffer<T>* operator->() const noexcept
        {
            return buf_.get();
        }
        [[nodiscard]] explicit operator bool() const noexcept
        {
            return static_cast<bool>(buf_);
        }

    private:
        friend class BufferPool;
        Lease(BufferPool* pool, int partition,
              std::shared_ptr<DeviceBuffer<T>> buf)
            : pool_(pool), partition_(partition), buf_(std::move(buf))
        {
        }
        void release()
        {
            if (buf_ && pool_)
                pool_->put_back<T>(std::move(buf_), partition_);
            pool_ = nullptr;
            buf_.reset();
        }

        BufferPool* pool_ = nullptr;
        int partition_ = 0;
        std::shared_ptr<DeviceBuffer<T>> buf_;
    };

    /// Lease a DeviceBuffer<T> of exactly `count` elements from
    /// `partition`.  The buffer's contents are T{} either way (fresh
    /// buffers value-initialize; reused ones are re-cleared), so pooled and
    /// unpooled execution produce bit-identical tables.  Reuse only ever
    /// happens within one partition.
    template <typename T>
    [[nodiscard]] Lease<T> acquire(std::int64_t count, int partition = 0)
    {
        SATGPU_EXPECTS(count >= 0);
        const auto bytes = static_cast<std::uint64_t>(count) * sizeof(T);
        std::shared_ptr<DeviceBuffer<T>> buf;
        {
            std::lock_guard<std::mutex> lock(mu_);
            PartitionStats& ps = pstats_[partition];
            auto it = free_.find(
                Key{partition, std::type_index(typeid(T)), count});
            if (it != free_.end() && !it->second.empty()) {
                buf = std::static_pointer_cast<DeviceBuffer<T>>(
                    std::move(it->second.back()));
                it->second.pop_back();
                ++stats_.reuses;
                ++ps.reuses;
            } else {
                ++stats_.allocations;
                ++ps.allocations;
                stats_.bytes_allocated += bytes;
            }
            ++stats_.outstanding;
            ++ps.outstanding;
            stats_.bytes_outstanding += bytes;
            ps.bytes_outstanding += bytes;
            stats_.high_water_bytes =
                std::max(stats_.high_water_bytes, stats_.bytes_outstanding);
            ps.high_water_bytes =
                std::max(ps.high_water_bytes, ps.bytes_outstanding);
        }
        if (buf) {
            auto h = buf->host();
            std::fill(h.begin(), h.end(), T{});
        } else {
            buf = std::make_shared<DeviceBuffer<T>>(count);
        }
        return Lease<T>(this, partition, std::move(buf));
    }

    /// Drop every cached buffer (outstanding leases are unaffected; they
    /// are freed on return instead of re-pooled only if the pool itself is
    /// gone, so keep the pool alive while leases are live).
    void trim()
    {
        std::lock_guard<std::mutex> lock(mu_);
        free_.clear();
    }

    [[nodiscard]] Stats stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

    /// Accounting for one partition; all-zero for partitions that never
    /// acquired anything.
    [[nodiscard]] PartitionStats partition_stats(int partition) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = pstats_.find(partition);
        return it == pstats_.end() ? PartitionStats{} : it->second;
    }

    /// Peak concurrent leased bytes a partition ever held (the
    /// admission-control signal the service layer bounds per plan).
    [[nodiscard]] std::uint64_t high_water_bytes(int partition) const
    {
        return partition_stats(partition).high_water_bytes;
    }

    /// A pool-less one-shot lease: owns its buffer and frees it on
    /// destruction.  Lets pool-optional call sites use one handle type.
    template <typename T>
    [[nodiscard]] static Lease<T> owned(std::int64_t count)
    {
        return Lease<T>(nullptr, 0,
                        std::make_shared<DeviceBuffer<T>>(count));
    }

private:
    struct Key {
        int partition;
        std::type_index type;
        std::int64_t count;
        friend bool operator<(const Key& a, const Key& b)
        {
            return std::tie(a.partition, a.type, a.count) <
                   std::tie(b.partition, b.type, b.count);
        }
    };

    template <typename T>
    void put_back(std::shared_ptr<DeviceBuffer<T>> buf, int partition)
    {
        const auto bytes =
            static_cast<std::uint64_t>(buf->size()) * sizeof(T);
        std::lock_guard<std::mutex> lock(mu_);
        SATGPU_EXPECTS(stats_.outstanding > 0);
        --stats_.outstanding;
        stats_.bytes_outstanding -= bytes;
        PartitionStats& ps = pstats_[partition];
        SATGPU_EXPECTS(ps.outstanding > 0);
        --ps.outstanding;
        ps.bytes_outstanding -= bytes;
        free_[Key{partition, std::type_index(typeid(T)), buf->size()}]
            .push_back(std::static_pointer_cast<void>(std::move(buf)));
    }

    mutable std::mutex mu_;
    std::map<Key, std::vector<std::shared_ptr<void>>> free_;
    std::map<int, PartitionStats> pstats_;
    Stats stats_;
};

/// Lease from `pool` when one is provided; otherwise a one-shot owned
/// buffer with identical semantics.  This is how the templated
/// sat::compute_sat stays pool-optional.
template <typename T>
[[nodiscard]] BufferPool::Lease<T> acquire_or_new(BufferPool* pool,
                                                  std::int64_t count,
                                                  int partition = 0)
{
    return pool ? pool->acquire<T>(count, partition)
                : BufferPool::owned<T>(count);
}

} // namespace satgpu::simt
