/**
 * @file
 * Shard planner: split one weighted campaign across N disjoint
 * journaled shards, deterministically.
 *
 * The single-process CampaignEngine is saturated, so a sharded
 * campaign runs each shard in its own process (`fsp campaign --shard
 * I/N`, tools/fsp.cc) and re-folds the shard journals into one result
 * with journal_merge.hh (`fsp merge`).  The planner's contract is the whole scheme's
 * correctness argument:
 *
 *  - Assignment is a pure function of (site index, site count, shard
 *    count): shard s owns the contiguous global range
 *    [s*n/N, (s+1)*n/N).  Contiguity keeps the merge's serial fold a
 *    simple concatenation in global site order -- the same order the
 *    single-process engine folds in -- so the merged profile is
 *    bit-identical at ANY shard count, including N=1.
 *  - Each shard journal is a standard CampaignJournal over the shard's
 *    sub-list (record indices are shard-local) whose header hash is
 *    computed from a shard-suffixed JournalKey; a JournalShardExt
 *    block sealed after the header carries the PARENT campaign's
 *    identity hash plus the shard's index/count/offset, so merge can
 *    prove all siblings belong to the same campaign and cover it
 *    exactly.
 *  - planShards() never looks at weights or outcomes, so re-planning
 *    the same site list always yields the same shards -- a crashed
 *    shard's journal can be re-opened and resumed by a fresh process
 *    with nothing but (campaign options, shard index, shard count).
 */

#ifndef FSP_FAULTS_SHARD_PLAN_HH
#define FSP_FAULTS_SHARD_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faults/campaign_journal.hh"
#include "faults/fault_site.hh"

namespace fsp::faults {

/** One shard of a sharded campaign. */
struct ShardPlanEntry
{
    /** Sealed into the shard journal's extension block. */
    ShardInfo info;

    /** Shard-suffixed campaign identity (tag + "#shard<i>/<N>"). */
    JournalKey key;

    /** Header hash of the shard journal (key + sub-list). */
    std::uint64_t headerHash = 0;

    /** The shard's sites, in global site order. */
    std::vector<WeightedSite> sites;

    bool empty() const { return sites.empty(); }
};

/** A full shard plan: N entries covering the campaign exactly once. */
struct ShardPlan
{
    /** Header hash of the FULL campaign (key + full site list). */
    std::uint64_t campaignHash = 0;

    /** The parent campaign's identity. */
    JournalKey campaignKey;

    std::uint64_t campaignSites = 0;

    std::vector<ShardPlanEntry> shards;
};

/** First global site index of shard @p s of @p count sites over @p n
 *  shards: s*count/n, computed without overflow.  shardBegin(n) ==
 *  count, so shard s owns [shardBegin(s), shardBegin(s+1)). */
std::uint64_t shardBegin(std::uint32_t shard, std::uint32_t shardCount,
                         std::uint64_t siteCount);

/** The shard-suffixed JournalKey of shard @p s of @p n. */
JournalKey shardJournalKey(const JournalKey &campaignKey,
                           std::uint32_t shard, std::uint32_t shardCount);

/** Conventional on-disk path of one shard journal:
 *  "<base>.shard<i>of<N>.fspj". */
std::string shardJournalPath(const std::string &base, std::uint32_t shard,
                             std::uint32_t shardCount);

/**
 * Split @p sites (the full campaign, in its canonical order) into
 * @p shardCount disjoint contiguous shards under campaign identity
 * @p key.  Every site appears in exactly one shard; empty shards are
 * legal (shardCount > sites.size()).  Throws std::invalid_argument on
 * shardCount == 0.
 */
ShardPlan planShards(const JournalKey &key,
                     const std::vector<WeightedSite> &sites,
                     std::uint32_t shardCount);

/**
 * Pre-create (or validate, when resuming) the on-disk journal of one
 * shard at @p path: a fresh file gets the standard header plus the
 * shard extension block sealed; an existing file is validated against
 * the entry's identity exactly as a resume would.  After this, the
 * shard's process runs it as a plain journaled campaign with
 * CampaignOptions{journalPath=path, resume=true, journalKey=entry.key}
 * -- the engine needs no sharding knowledge at all.  Throws
 * JournalError when an existing file belongs to a different campaign
 * or shard geometry.
 */
void prepareShardJournal(const std::string &path,
                         const ShardPlanEntry &entry,
                         std::uint64_t modelHash);

} // namespace fsp::faults

#endif // FSP_FAULTS_SHARD_PLAN_HH
