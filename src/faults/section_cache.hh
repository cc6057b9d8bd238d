/**
 * @file
 * Content-addressed per-section campaign result cache (the FastFlip
 * idea adapted to this engine): when a kernel is edited and
 * re-campaigned, only fault sites in *changed* trace sections need
 * re-injection -- every other site's outcome is replayed from a cache
 * keyed purely by content hashes, never by file names or timestamps.
 *
 * Key derivation (see sim/section.hh for the per-section hashes):
 *
 *   bucket  = FNV(contextHash, section.contentHash,
 *                 section.prefixStateHash)          -- names the file
 *   site    = FNV(section.tailContentHash, thread,
 *                 writeOffsetInSection, bit)        -- SiteSectionKey
 *   entry   = FNV(site, faultModelHash, seed)       -- record key
 *
 * contextHash pins the launch geometry and the golden outputs (inputs
 * are reflected in the outputs, so a changed input image changes the
 * context).  tailContentHash covers the section *and everything after
 * it*, because an outcome is only reusable when the code the fault
 * propagates through is unchanged -- an edit therefore invalidates its
 * own section and every earlier one, conservatively.  prefixStateHash
 * pins the architectural values the section consumes without pinning
 * upstream content, so a value-preserving upstream edit (strength
 * reduction, guarded-off instrumentation) keeps downstream sections
 * warm.  Model hash and seed complete the key: a cache directory can
 * be shared freely across models, seeds, kernels and shard workers --
 * wrong-anything simply misses.
 *
 * Known soundness limits (documented, backstopped by the warm-vs-cold
 * bit-identity suite in tests/test_section_cache.cc): prefixStateHash
 * pins per-thread register dataflow plus the golden outputs, not
 * cross-thread shared-memory traffic, so an edit that changes another
 * thread's stores without changing this thread's trace or the golden
 * output is not distinguished.  The barrier-aligned section cuts make
 * such an edit also change the observing thread's trace in every case
 * the PTXPlus model can express today.
 *
 * Disk format: one append-only file per bucket
 * (`DIR/sec-<hex>.fspc`), fixed 56-byte self-checksummed records.
 * Appends are single O_APPEND write()s, so the processes of a
 * sharded campaign (`fsp campaign --shard`) can share a directory
 * without locking;
 * torn or corrupt records are skipped on load (a miss, never an
 * error), and duplicate keys are benign because outcomes are
 * deterministic functions of the key.
 */

#ifndef FSP_FAULTS_SECTION_CACHE_HH
#define FSP_FAULTS_SECTION_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "faults/fault_site.hh"
#include "faults/output_spec.hh"
#include "faults/sdc_anatomy.hh"
#include "sim/launch.hh"
#include "sim/section.hh"

namespace fsp::faults {

/**
 * Sentinel for SectionCacheRecord::staticIndex: the fault applied at
 * the site's own instruction (the overwhelmingly common case), whose
 * static index must be resolved against the *current* kernel on
 * replay -- an insertion elsewhere renumbers static indices without
 * invalidating the outcome.
 */
inline constexpr std::uint32_t kStaticFollowsSite =
    ~std::uint32_t{0} - 1;

/** One cached classification (the payload of a cache entry). */
struct SectionCacheRecord
{
    Outcome outcome = Outcome::Invalid;

    /**
     * InjectionDetail::staticIndex, with kStaticFollowsSite standing
     * in when it equals the site's own instruction (see above).
     */
    std::uint32_t staticIndex = sim::kNoStaticIndex;

    bool hasAnatomy = false;
    SdcAnatomyRecord anatomy;

    bool operator==(const SectionCacheRecord &other) const = default;
};

/** Cache coordinates of one fault site (from SectionIndex::keyFor). */
struct SiteSectionKey
{
    std::uint64_t sectionHash = 0; ///< bucket: context + content + prefix
    std::uint64_t siteHash = 0;    ///< tail + thread + offset + bit
    std::uint32_t staticIndex = 0; ///< site's instruction, current kernel
};

/** Fold the model hash and campaign seed into a final entry key. */
std::uint64_t sectionCacheKey(std::uint64_t siteHash,
                              std::uint64_t modelHash,
                              std::uint64_t seed);

/**
 * Context component of every bucket hash: launch geometry plus the
 * golden outputs and their declared geometry.  The initial memory
 * image is deliberately absent -- any input change that matters is
 * visible in the golden outputs or in the traces themselves.
 */
std::uint64_t
campaignContextHash(const sim::LaunchConfig &config,
                    const std::vector<OutputRegion> &outputs,
                    const std::vector<std::vector<std::uint8_t>> &golden);

/**
 * Maps fault sites of one campaign onto section-cache coordinates.
 * Built by the analysis facade (KernelAnalysis::buildSectionIndex)
 * from value-recorded traces of exactly the threads the site list
 * touches, then handed to the engine via
 * CampaignOptions::sectionIndex.  Sites on un-indexed threads or at
 * non-injectable records simply yield no key (a cache miss).
 */
class SectionIndex
{
  public:
    explicit SectionIndex(std::uint64_t contextHash = 0)
        : context_hash_(contextHash)
    {
    }

    std::uint64_t contextHash() const { return context_hash_; }

    /**
     * Index one thread's value-recorded dynamic trace, pre-split by
     * sim::splitTrace over the same trace.
     */
    void addThread(std::uint64_t thread,
                   const std::vector<sim::DynRecord> &trace,
                   sim::SectionedTrace sectioned);

    bool
    hasThread(std::uint64_t thread) const
    {
        return threads_.find(thread) != threads_.end();
    }

    std::size_t threadCount() const { return threads_.size(); }

    /** Sections indexed across all threads. */
    std::size_t sectionCount() const;

    /**
     * Cache coordinates of @p site, or nullopt when the site's thread
     * is not indexed or its record is not an executed destination
     * write (such sites always take the injection path).
     */
    std::optional<SiteSectionKey> keyFor(const FaultSite &site) const;

    /** The sections of one indexed thread (journal summaries). */
    const sim::SectionedTrace *
    threadSections(std::uint64_t thread) const
    {
        auto it = threads_.find(thread);
        return it != threads_.end() ? &it->second.sectioned : nullptr;
    }

  private:
    struct ThreadIndex
    {
        sim::SectionedTrace sectioned;
        std::vector<std::uint32_t> staticIndexOf; ///< per dyn record
        std::vector<std::uint8_t> injectable; ///< executed dest write
    };

    std::uint64_t context_hash_ = 0;
    std::unordered_map<std::uint64_t, ThreadIndex> threads_;
};

/** I/O and hit counters of one SectionCache instance. */
struct SectionCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bytesRead = 0;    ///< bucket bytes loaded from disk
    std::uint64_t bytesWritten = 0; ///< record bytes appended
    std::uint64_t corruptRecords = 0; ///< skipped on load (not errors)
};

/**
 * The on-disk cache.  Not thread-safe: the engine drives it from the
 * campaign thread only (lookups before classification, stores after).
 * Multi-*process* sharing of one directory is safe by design (atomic
 * O_APPEND appends, self-checksummed records).
 */
class SectionCache
{
  public:
    /** Opens (and creates, recursively) the cache directory. */
    explicit SectionCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Look up one entry; loads the bucket file on first touch.
     * Counts a hit or miss in stats().
     */
    std::optional<SectionCacheRecord> lookup(std::uint64_t sectionHash,
                                             std::uint64_t keyHash);

    /** Buffer one entry for flush(); overwrites in-memory duplicates. */
    void store(std::uint64_t sectionHash, std::uint64_t keyHash,
               const SectionCacheRecord &record);

    /** Append every buffered entry, one write per bucket file. */
    void flush();

    const SectionCacheStats &stats() const { return stats_; }

  private:
    struct Bucket
    {
        std::unordered_map<std::uint64_t, SectionCacheRecord> entries;
        std::vector<std::uint8_t> pending; ///< serialized, unflushed
        bool loaded = false;
    };

    Bucket &bucket(std::uint64_t sectionHash);
    void loadBucket(std::uint64_t sectionHash, Bucket &bucket);
    std::string bucketPath(std::uint64_t sectionHash) const;

    std::string dir_;
    std::unordered_map<std::uint64_t, Bucket> buckets_;
    SectionCacheStats stats_;
};

} // namespace fsp::faults

#endif // FSP_FAULTS_SECTION_CACHE_HH
