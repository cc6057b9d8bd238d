/**
 * @file
 * Durable campaign sessions: an append-only, integrity-checked on-disk
 * journal of completed injection outcomes.
 *
 * A statistical baseline at the paper's scale is 60K injection runs
 * per kernel, and pruned campaigns grow multi-hour as kernels are
 * added -- yet a killed process used to lose every completed outcome.
 * The journal makes campaigns preemption-safe: the engine appends one
 * fixed-size binary record per classified site and fsyncs the batch at
 * every chunk fold point, so a restarted campaign replays the recorded
 * outcomes, injects only the remaining sites, and still folds a
 * bit-identical resilience profile (the fold always runs serially in
 * site order over the full outcome vector, no matter which outcomes
 * came from disk).
 *
 * File layout (native endianness; a journal is machine-local state,
 * not an interchange format):
 *
 *   [JournalHeader]  magic, header hash, model hash, site count,
 *                    checksum
 *   [JournalShardExt] optional; present only on shard journals of a
 *                    sharded campaign (see shard_plan.hh): the parent
 *                    campaign's identity hash, this shard's index and
 *                    count, and the shard's global site offset
 *   [JournalRecord]* one per completed site, any order, no duplicates;
 *                    each carries the outcome plus the injection
 *                    detail (static instruction index, SDC anatomy)
 *                    and whether the outcome was replayed from the
 *                    section cache instead of injected
 *   [SectionSummary]* optional; per trace section touched by the
 *                    campaign: site/outcome/SDC-pattern tallies, the
 *                    cache-hit count, and the section's propagation
 *                    (tail) hash -- written by the engine when a
 *                    section index is attached, before the footer
 *   [JournalFooter]  optional; present only on completed campaigns,
 *                    carries per-phase wall time and throughput
 *
 * The header hash is computed over the campaign's identity -- the full
 * site list with weights, the caller's kernel/config tag, and the
 * seed -- so a journal can never be resumed against a different
 * campaign.  The model hash is the fault model's identity hash
 * (FaultModel::identityHash()), checked separately so resuming under a
 * different model fails with a message naming the actual problem.
 * Every record and the footer carry a checksum mixed with the header
 * hash; truncated or corrupted entries are rejected with a clear error
 * rather than silently dropped (recovery from a torn file is: delete
 * the journal and rerun).
 */

#ifndef FSP_FAULTS_CAMPAIGN_JOURNAL_HH
#define FSP_FAULTS_CAMPAIGN_JOURNAL_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_site.hh"
#include "faults/outcome.hh"
#include "faults/sdc_anatomy.hh"
#include "util/hash.hh"

namespace fsp::faults {

/** Any journal validation or I/O failure (message explains which). */
class JournalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The library's FNV-1a hasher (util/hash.hh) with the typed updates
 * the journal folds; its sole integrity primitive (headers, records,
 * footers and the campaign-identity hash all use it).
 */
class JournalHasher : public Fnv1a64
{
  public:
    using Fnv1a64::update;

    /** Length first, so "ab","c" and "a","bc" differ. */
    void
    update(std::string_view text)
    {
        update(static_cast<std::uint64_t>(text.size()));
        update(text.data(), text.size());
    }

    void
    update(double value)
    {
        update(std::bit_cast<std::uint64_t>(value));
    }
};

/** The campaign identity folded into the journal header hash. */
struct JournalKey
{
    /** Free-form campaign tag (kernel name, scale, pruning config). */
    std::string tag;

    /** Master seed of the campaign. */
    std::uint64_t seed = 0;
};

/**
 * Identity of one shard of a sharded campaign, sealed into the shard
 * journal's extension block right after the header.  Record indices in
 * a shard journal are shard-local (0 .. shard size); siteOffset maps
 * them back to positions in the parent campaign's site list.
 */
struct ShardInfo
{
    std::uint64_t campaignHash = 0;  ///< header hash of the FULL site list
    std::uint64_t siteOffset = 0;    ///< global index of the shard's first site
    std::uint64_t campaignSites = 0; ///< full campaign site count
    std::uint32_t shardIndex = 0;    ///< this shard, in [0, shardCount)
    std::uint32_t shardCount = 1;

    bool operator==(const ShardInfo &other) const = default;
};

/**
 * Per-section campaign summary sealed into the journal (format v3):
 * how one trace section's fault sites classified, how many of them the
 * section cache satisfied, and the section's identity/propagation
 * hashes.  Purely observational -- replay and merge correctness never
 * depend on these blocks -- but they let `fsp` report incremental
 * reuse per section and survive restarts with the journal.
 */
struct JournalSectionSummary
{
    std::uint64_t sectionHash = 0; ///< cache bucket (context+content+prefix)
    std::uint64_t tailHash = 0;    ///< propagation (tail content) hash
    std::uint64_t thread = 0;      ///< traced thread owning the section
    std::uint32_t firstRecord = 0; ///< first dyn record of the section
    std::uint32_t recordCount = 0;
    std::uint32_t sites = 0;       ///< campaign sites in this section
    std::uint32_t cachedSites = 0; ///< satisfied from the section cache
    std::uint32_t outcomes[4] = {}; ///< tally per Outcome value
    std::uint32_t sdcPatterns[kNumSdcPatterns] = {}; ///< per SdcPattern

    bool operator==(const JournalSectionSummary &other) const = default;
};

/** @{ Header hash over the campaign identity and its full site list. */
std::uint64_t
journalHeaderHash(const JournalKey &key, std::size_t count,
                  const std::function<const FaultSite &(std::size_t)> &siteAt,
                  const std::function<double(std::size_t)> &weightAt);
std::uint64_t journalHeaderHash(const JournalKey &key,
                                const std::vector<WeightedSite> &sites);
std::uint64_t journalHeaderHash(const JournalKey &key,
                                const std::vector<FaultSite> &sites);
/** @} */

/**
 * Append-only journal of campaign outcomes.  Writers append records
 * (buffered) and make them durable with commitChunk(); a completed
 * campaign seals the file with writeFooter().  All validation happens
 * in openOrResume().
 */
class CampaignJournal
{
  public:
    /** Per-phase wall time and throughput sealed into the footer. */
    struct Phases
    {
        double replaySeconds = 0.0; ///< journal open + outcome replay
        double injectSeconds = 0.0; ///< parallel classification
        double foldSeconds = 0.0;   ///< serial outcome fold
        double sitesPerSecond = 0.0;
        std::uint64_t sitesDone = 0;
        std::uint32_t workers = 0;
    };

    /** What openOrResume() recovered from an existing journal. */
    struct Resume
    {
        /** Per-site outcome; meaningful where done[i] is set. */
        std::vector<Outcome> outcomes;

        /** Per-site detail (static index, anatomy); same validity. */
        std::vector<InjectionDetail> details;

        std::vector<bool> done; ///< one flag per site
        std::uint64_t doneCount = 0;

        /**
         * Per-site flag: the recorded outcome was replayed from the
         * section cache rather than injected (same validity as done).
         * Preserved across resume and shard merge so incremental-reuse
         * accounting survives restarts.
         */
        std::vector<bool> cached;
        std::uint64_t cachedCount = 0;

        bool complete = false; ///< a valid footer was found
        Phases footer;         ///< valid when complete

        /** Present when the file carries a shard extension block. */
        std::optional<ShardInfo> shard;

        /** Section summaries found in the journal, in file order. */
        std::vector<JournalSectionSummary> sections;
    };

    /**
     * Start a fresh journal at @p path (truncating any existing file)
     * for a campaign of @p siteCount sites identified by
     * @p headerHash, run under the fault model identified by
     * @p modelHash (FaultModel::identityHash()).  When @p shard is
     * non-null the journal is one shard of a sharded campaign and the
     * shard extension block is sealed right after the header.  The
     * header (and extension) are durable on return.
     */
    static CampaignJournal create(const std::string &path,
                                  std::uint64_t headerHash,
                                  std::uint64_t modelHash,
                                  std::uint64_t siteCount,
                                  const ShardInfo *shard = nullptr);

    /**
     * Open an existing journal, validate its header against
     * @p headerHash / @p modelHash / @p siteCount, replay every record
     * into @p resume, and position the file for further appends -- or
     * create a fresh journal when @p path does not exist.  Throws
     * JournalError on a stale header hash, a fault-model mismatch, a
     * site-count mismatch, or any truncated/corrupted record.
     */
    static CampaignJournal openOrResume(const std::string &path,
                                        std::uint64_t headerHash,
                                        std::uint64_t modelHash,
                                        std::uint64_t siteCount,
                                        Resume &resume);

    /**
     * Read-only validation and replay: open @p path, run exactly the
     * openOrResume() validation against @p headerHash / @p modelHash /
     * @p siteCount and return the replayed Resume without keeping a
     * writer open.  Unlike openOrResume(), a missing file is an error
     * (JournalError naming the path) -- inspection never creates.
     * This is what the journal-merge validator and `fsp merge` use.
     */
    static Resume inspect(const std::string &path,
                          std::uint64_t headerHash,
                          std::uint64_t modelHash,
                          std::uint64_t siteCount);

    CampaignJournal(CampaignJournal &&other) noexcept;
    CampaignJournal &operator=(CampaignJournal &&other) noexcept;
    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;
    ~CampaignJournal();

    /**
     * Buffer one completed site's record (durable after commitChunk).
     * @p fromCache marks an outcome replayed from the section cache
     * rather than injected (carried in the record's flag byte).
     */
    void append(std::uint64_t siteIndex, Outcome outcome,
                const InjectionDetail &detail = {},
                bool fromCache = false);

    /** Buffer one per-section summary block (durable after commit). */
    void appendSectionSummary(const JournalSectionSummary &summary);

    /** What one commit made durable (observability, not control flow). */
    struct CommitInfo
    {
        std::uint64_t records = 0; ///< records flushed by this commit
        std::uint64_t bytes = 0;   ///< bytes written by this commit
    };

    /**
     * Write all buffered records in one append and fsync them --
     * called from the campaign engine's chunk fold point, so a kill
     * between commits loses at most the in-flight chunks.
     */
    CommitInfo commitChunk();

    /**
     * Seal a completed campaign: commit, append the footer, fsync.
     * The returned CommitInfo covers the whole seal (inner commit's
     * records; its bytes plus the footer's).
     */
    CommitInfo writeFooter(const Phases &phases);

    /** Records made durable by this writer (excludes buffered ones). */
    std::uint64_t committedRecords() const { return committed_; }

    const std::string &path() const { return path_; }

  private:
    CampaignJournal(std::string path, int fd, std::uint64_t headerHash);

    void writeAll(const void *bytes, std::size_t size);
    void syncToDisk();

    std::string path_;
    int fd_ = -1;
    std::uint64_t header_hash_ = 0;
    std::vector<std::uint8_t> pending_; ///< serialized unflushed entries
    std::uint64_t pending_records_ = 0; ///< site records in pending_
    std::uint64_t committed_ = 0;
};

} // namespace fsp::faults

#endif // FSP_FAULTS_CAMPAIGN_JOURNAL_HH
