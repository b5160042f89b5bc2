// Warp-synchronous hazard checker: a `compute-sanitizer --tool racecheck`
// / `synccheck` analog that runs inside the engine when
// Engine::Options::check is set.
//
// The paper's kernels are correct only under warp-synchronous discipline:
// BRLT's staging tiles are written by one warp round and reused only after
// a __syncthreads()-equivalent barrier, and every shuffle assumes its
// source lanes participate.  The simulator's deterministic round-robin
// scheduler EXECUTES those semantics but cannot tell a correctly
// synchronized kernel from one that merely happens to work under
// round-robin -- a kernel that drops a barrier still produces the right
// answer here while racing on real hardware.  The checker closes that gap
// by verifying the discipline itself:
//
//  * smem-raw / smem-war / smem-waw -- two different warps touch the same
//    shared-memory element with at least one write and NO barrier release
//    between the accesses (same "barrier epoch").  Tracked with per-element
//    shadow state: last writer warp + epoch, reader warp set + epoch.
//  * smem-uninit-read -- a read of a shared-memory element no warp of the
//    block has written.
//  * barrier-divergence -- a barrier releases while some warp of the block
//    has already finished (synccheck's "thread exited without executing
//    barrier"); detected in the scheduler's rendezvous bookkeeping.
//  * shuffle-inactive-source -- an active lane of a shuffle sources a lane
//    outside the call's `active` mask (undefined on hardware).
//  * vote-inactive-predicate -- a vote's predicate has bits set for lanes
//    outside `active` (those threads are not participating; their
//    contribution is undefined on hardware).
//
// Sites are `file:line` via the same defaulted std::source_location
// plumbing the profiler's hotspot tables use, so a hazard points at the
// exact offending access in kernel code.  Findings aggregate per
// (kind, site, conflicting site, allocation) with an occurrence count and
// a deterministic exemplar (lowest block, then offset, then warp); like
// the profiler, per-worker checkers merge in worker-index order, so the
// report -- and its serialized bytes -- are identical for every
// Engine::Options::num_threads.  The checker only observes: outputs and
// counters are bit-identical with the checker on or off.
#pragma once

#include "simt/lane_vec.hpp"
#include "simt/profiler.hpp" // SATGPU_SITE + trim_source_path

#include <cstdint>
#include <iosfwd>
#include <map>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace satgpu::simt {

struct LaunchStats; // engine.hpp

/// One shared-memory element as the checker keys its shadow state: the
/// element's allocation (byte offset in the block's arena, element count,
/// element size) and its index within it.  SmemView knows all four.
struct SmemElem {
    std::int64_t alloc_offset = 0;
    std::int64_t alloc_count = 0;
    std::int64_t elem_bytes = 0;
    std::int64_t index = 0;

    /// Byte offset of the element in the block's arena (what findings
    /// report as their exemplar detail).
    [[nodiscard]] std::int64_t byte_offset() const noexcept
    {
        return alloc_offset + index * elem_bytes;
    }
};

enum class HazardKind : std::uint8_t {
    kSmemRaw,        ///< read of another warp's same-epoch write
    kSmemWar,        ///< write over another warp's same-epoch read
    kSmemWaw,        ///< write over another warp's same-epoch write
    kSmemUninitRead, ///< read of never-written shared memory
    kBarrierDivergence,     ///< a warp finished while siblings wait at a sync
    kShuffleInactiveSource, ///< active lane sources a lane outside `active`
    kVoteInactivePredicate, ///< predicate bits set outside `active`
};

[[nodiscard]] std::string_view to_string(HazardKind k) noexcept;

/// One aggregated finding.  `count` is the number of element-level (smem),
/// lane-level (shuffle/vote) or release-level (divergence) occurrences
/// across the launch; the exemplar fields describe the lexicographically
/// smallest (first_block, detail, warp, other_warp) occurrence, which makes
/// them schedule independent.
struct Hazard {
    HazardKind kind{};
    std::string site;       ///< offending access, "src/sat/brlt.hpp:58"
    std::string other_site; ///< conflicting earlier access ("" when n/a)
    std::string note;       ///< smem allocation name ("" when n/a)
    std::uint64_t count = 0;
    std::int64_t first_block = -1; ///< lowest linear block (-1 = no block)
    /// Exemplar detail: smem hazards -- byte offset of the element in the
    /// block's shared-memory arena; shuffle -- the out-of-mask source lane;
    /// vote -- the offending predicate bits; divergence -- -1.
    std::int64_t detail = -1;
    int warp = -1;       ///< exemplar offending warp (reader/writer/waiter)
    int other_warp = -1; ///< exemplar conflicting warp (-1 when n/a)
};

/// Everything the checker learned about one launch.  `hazards` is sorted
/// by (kind, site, other_site, note); empty means the launch is clean.
struct HazardReport {
    std::vector<Hazard> hazards;

    [[nodiscard]] bool clean() const noexcept { return hazards.empty(); }
    [[nodiscard]] std::uint64_t total() const noexcept
    {
        std::uint64_t n = 0;
        for (const Hazard& h : hazards)
            n += h.count;
        return n;
    }
};

/// Per-worker collection sink, mirroring Profiler: the engine owns one per
/// worker thread when Options::check is set, installs it via
/// HazardCheckerScope, and merges the workers in index order after joining
/// them.  Detection is entirely per block (shadow state resets at
/// begin_block via a sequence tag, epochs advance at barrier releases), so
/// findings are independent of which worker ran which block.
class HazardChecker {
public:
    HazardChecker() = default;
    HazardChecker(HazardChecker&&) = default;
    HazardChecker& operator=(HazardChecker&&) = default;

    // -- scheduler hooks (engine.cpp) ---------------------------------------
    void begin_block(std::int64_t linear) noexcept;
    void end_block() noexcept;
    /// Warp about to resume (-1 = scheduler / between warps).
    void set_active_warp(int warp) noexcept { warp_ = warp; }
    /// A block-wide barrier released: accesses before and after can no
    /// longer race.
    void barrier_release() noexcept { epoch_ += 1; }

    // -- instrumentation entry points ---------------------------------------
    /// One lane's access to shared-memory element `elem` of allocation
    /// `alloc_name` (SmemView::store/load call this per active lane).
    void record_smem_access(bool is_store, const SmemElem& elem,
                            std::string_view alloc_name,
                            const std::source_location& site);
    /// A barrier released while `finished_warp` had already returned;
    /// `waiting_warp` was suspended at `wait_site`.
    void record_barrier_divergence(int finished_warp, int waiting_warp,
                                   const std::source_location& wait_site);
    /// Active lane `dest_lane` of a shuffle sourced `src_lane`, which is
    /// outside the call's active mask.
    void record_shuffle_source(int dest_lane, int src_lane,
                               const std::source_location& site);
    /// A vote whose predicate has bits outside its active mask.
    void record_vote_predicate(LaneMask pred, LaneMask active,
                               const std::source_location& site);

    // -- merge + report -----------------------------------------------------
    /// Fold another worker's findings in (commutative: counts sum, the
    /// exemplar is the lexicographic minimum).
    void merge(const HazardChecker& o);
    [[nodiscard]] HazardReport build_report() const;

private:
    /// Shadow state of one shared-memory element (all accesses to an
    /// allocation use one element type, enforced by
    /// SharedMemory::allocate_named, so an element index names the same
    /// bytes for every access).  `block_seq` makes invalidation lazy:
    /// entries from earlier blocks read as untouched without a per-block
    /// clear pass.
    struct ElemShadow {
        std::uint64_t block_seq = 0;
        std::uint32_t write_epoch = 0;
        std::uint32_t read_epoch = 0;
        std::uint32_t reader_warps = 0; // warp bitmask (<= 32 warps/block)
        std::int32_t writer_warp = -1;
        bool written = false;
        std::source_location write_site{};
        std::source_location read_site{};
    };
    /// The shadow of one allocation: one ElemShadow per element, sized to
    /// the largest element count seen at its offset.
    /// Allocations of one block never share an offset, so the offset is
    /// the key; a later block reusing the offset for another layout is
    /// told apart by block_seq.
    struct AllocShadow {
        std::int64_t offset = 0;
        std::vector<ElemShadow> elems;
    };

    [[nodiscard]] ElemShadow& shadow_of(const SmemElem& elem);

    struct Key {
        HazardKind kind{};
        std::string site;
        std::string other_site;
        std::string note;
        friend bool operator<(const Key& a, const Key& b) noexcept
        {
            if (a.kind != b.kind)
                return a.kind < b.kind;
            if (a.site != b.site)
                return a.site < b.site;
            if (a.other_site != b.other_site)
                return a.other_site < b.other_site;
            return a.note < b.note;
        }
    };
    struct Accum {
        std::uint64_t count = 0;
        std::int64_t first_block = -1;
        std::int64_t detail = -1;
        int warp = -1;
        int other_warp = -1;
    };

    void record(HazardKind kind, const std::source_location& site,
                const std::source_location* other_site, std::string_view note,
                std::int64_t detail, int warp, int other_warp);

    std::map<Key, Accum> findings_;
    std::vector<AllocShadow> shadow_; // one per allocation offset seen
    std::size_t last_alloc_ = 0;      // shadow_ index of the last access
    std::uint64_t block_seq_ = 0;    // monotone per begin_block
    std::uint32_t epoch_ = 0;        // barrier epoch within the open block
    std::int64_t block_ = -1;        // linear index of the open block
    int warp_ = -1;                  // warp currently resumed (-1 = none)
};

/// Thread-local checker installation, mirroring CounterScope /
/// ProfilerScope.  Installing nullptr is a no-op scope (checking disabled
/// on this thread); kernels pay one thread-local null check per memory
/// access when the checker is off.
[[nodiscard]] HazardChecker* current_hazard_checker() noexcept;

class HazardCheckerScope {
public:
    explicit HazardCheckerScope(HazardChecker* c) noexcept;
    ~HazardCheckerScope();
    HazardCheckerScope(const HazardCheckerScope&) = delete;
    HazardCheckerScope& operator=(const HazardCheckerScope&) = delete;

private:
    HazardChecker* prev_;
};

// -- serialization ----------------------------------------------------------

/// Structured per-launch hazard document:
/// {"schema":"satgpu-hazard-v1","launches":[...]}.  Launches that ran
/// without Options::check serialize {"checked":false}.  Byte-identical for
/// every engine thread count.
void write_hazard_json(std::ostream& os, std::span<const LaunchStats> ls);

/// Total hazard occurrences across a set of launches (0 when clean or when
/// the launches ran unchecked).
[[nodiscard]] std::uint64_t total_hazards(std::span<const LaunchStats> ls);

} // namespace satgpu::simt
