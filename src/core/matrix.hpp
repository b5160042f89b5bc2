// Row-major 2-D matrix used as the host/device image container.
//
// The paper's convention (Sec. III-A) is followed throughout the project:
// a matrix has height H (rows, indexed by y) and width W (columns, indexed
// by x); element (x, y) lives at row y, column x.
#pragma once

#include "core/check.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace satgpu {

/// Tag selecting Matrix's uninitialized constructor.
struct Uninitialized {
    explicit Uninitialized() = default;
};
inline constexpr Uninitialized kUninitialized{};

#if defined(__linux__)
namespace detail {

/// Blocks of at least this many bytes bypass malloc: they are mapped
/// directly, 2 MiB aligned, and marked eligible for transparent huge
/// pages.  A 64 MiB table then takes 32 first-touch faults instead of
/// 16384, and its release is one cheap munmap.  The cut-off is glibc's
/// largest dynamic mmap threshold: malloc maps blocks this big afresh on
/// every call anyway and never learns from their release, so bypassing
/// it leaves its reuse of smaller blocks untouched.
inline constexpr std::size_t kLargeBlockBytes = std::size_t{32} << 20;
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Whether n elements of T take the large-block path.
template <typename T>
[[nodiscard]] constexpr bool is_large_block(std::size_t n) noexcept
{
    return n >= kLargeBlockBytes / sizeof(T) &&
           n <= std::numeric_limits<std::size_t>::max() / sizeof(T);
}

[[nodiscard]] inline std::size_t large_block_length(std::size_t bytes)
{
    return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}

[[nodiscard]] inline void* map_large_block(std::size_t bytes)
{
    const std::size_t len = large_block_length(bytes);
    void* const raw = ::mmap(nullptr, len + kHugePageBytes,
                             PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    // Trim the over-allocation so the block starts on a 2 MiB boundary.
    auto* const base = static_cast<std::byte*>(raw);
    const std::size_t head =
        (kHugePageBytes -
         reinterpret_cast<std::uintptr_t>(base) % kHugePageBytes) %
        kHugePageBytes;
    if (head > 0)
        ::munmap(base, head);
    ::munmap(base + head + len, kHugePageBytes - head);
    ::madvise(base + head, len, MADV_HUGEPAGE);
    return base + head;
}

inline void unmap_large_block(void* p, std::size_t bytes) noexcept
{
    ::munmap(p, large_block_length(bytes));
}

} // namespace detail
#endif

/// Host allocator for image and device-buffer storage:
///  * its value-less construct() DEFAULT-initializes, so
///    `std::vector<T, DefaultInitAllocator<T>>(n)` of a trivial T leaves
///    the elements unwritten -- no zero-fill pass, and the pages are first
///    touched by whoever writes them (the engine's block workers, in
///    parallel);
///  * on Linux, blocks of at least 32 MiB are huge-page-eligible
///    anonymous mappings (detail::map_large_block), which makes that
///    first touch and the final release cheap.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };
    using std::allocator<T>::allocator;

#if defined(__linux__)
    [[nodiscard]] T* allocate(std::size_t n)
    {
        if (detail::is_large_block<T>(n))
            return static_cast<T*>(detail::map_large_block(n * sizeof(T)));
        return std::allocator<T>::allocate(n);
    }
    void deallocate(T* p, std::size_t n) noexcept
    {
        if (detail::is_large_block<T>(n))
            detail::unmap_large_block(p, n * sizeof(T));
        else
            std::allocator<T>::deallocate(p, n);
    }
#endif

    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/// Row-major H x W matrix with value semantics.
template <typename T>
class Matrix {
public:
    using value_type = T;

    Matrix() = default;

    Matrix(std::int64_t height, std::int64_t width, T fill = T{})
        : height_(height), width_(width),
          data_(checked_size(height, width), fill)
    {
    }

    /// Uninitialized H x W matrix: element values are indeterminate until
    /// written.  Meant for storage a kernel pass overwrites in full (the
    /// SAT result), where a fill would be a wasted write pass.
    Matrix(std::int64_t height, std::int64_t width, Uninitialized)
        : height_(height), width_(width),
          data_(checked_size(height, width))
    {
    }

    [[nodiscard]] std::int64_t height() const noexcept { return height_; }
    [[nodiscard]] std::int64_t width() const noexcept { return width_; }
    [[nodiscard]] std::int64_t size() const noexcept
    {
        return height_ * width_;
    }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    [[nodiscard]] T& at(std::int64_t y, std::int64_t x)
    {
        SATGPU_EXPECTS(in_bounds(y, x));
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }
    [[nodiscard]] const T& at(std::int64_t y, std::int64_t x) const
    {
        SATGPU_EXPECTS(in_bounds(y, x));
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }

    /// Unchecked access for hot loops (callers validate bounds once).
    [[nodiscard]] T& operator()(std::int64_t y, std::int64_t x) noexcept
    {
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }
    [[nodiscard]] const T& operator()(std::int64_t y,
                                      std::int64_t x) const noexcept
    {
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }

    [[nodiscard]] std::span<T> row(std::int64_t y)
    {
        SATGPU_EXPECTS(y >= 0 && y < height_);
        return {data_.data() + y * width_, static_cast<std::size_t>(width_)};
    }
    [[nodiscard]] std::span<const T> row(std::int64_t y) const
    {
        SATGPU_EXPECTS(y >= 0 && y < height_);
        return {data_.data() + y * width_, static_cast<std::size_t>(width_)};
    }

    [[nodiscard]] std::span<T> flat() noexcept { return data_; }
    [[nodiscard]] std::span<const T> flat() const noexcept { return data_; }

    [[nodiscard]] bool in_bounds(std::int64_t y, std::int64_t x) const noexcept
    {
        return y >= 0 && y < height_ && x >= 0 && x < width_;
    }

    friend bool operator==(const Matrix& a, const Matrix& b) = default;

private:
    static std::size_t checked_size(std::int64_t h, std::int64_t w)
    {
        SATGPU_EXPECTS(h >= 0 && w >= 0);
        return static_cast<std::size_t>(h) * static_cast<std::size_t>(w);
    }

    std::int64_t height_ = 0;
    std::int64_t width_ = 0;
    std::vector<T, DefaultInitAllocator<T>> data_;
};

/// Plain O(H*W) transpose, used as a test oracle for BRLT and the
/// scan-transpose-scan pipelines.
template <typename T>
[[nodiscard]] Matrix<T> transpose(const Matrix<T>& m)
{
    Matrix<T> out(m.width(), m.height());
    for (std::int64_t y = 0; y < m.height(); ++y)
        for (std::int64_t x = 0; x < m.width(); ++x)
            out(x, y) = m(y, x);
    return out;
}

/// Elementwise conversion between matrix value types (e.g. 8u input to a
/// 32-bit accumulator image).
template <typename Dst, typename Src>
[[nodiscard]] Matrix<Dst> convert(const Matrix<Src>& m)
{
    Matrix<Dst> out(m.height(), m.width());
    std::transform(m.flat().begin(), m.flat().end(), out.flat().begin(),
                   [](Src v) { return static_cast<Dst>(v); });
    return out;
}

/// Maximum absolute difference between two same-shaped matrices, as a
/// `double`.  Used for approximate comparisons of floating-point SATs.
template <typename T>
[[nodiscard]] double max_abs_diff(const Matrix<T>& a, const Matrix<T>& b)
{
    SATGPU_EXPECTS(a.height() == b.height() && a.width() == b.width());
    double worst = 0.0;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        const double d = std::abs(static_cast<double>(a.flat()[static_cast<std::size_t>(i)]) -
                                  static_cast<double>(b.flat()[static_cast<std::size_t>(i)]));
        worst = std::max(worst, d);
    }
    return worst;
}

} // namespace satgpu
