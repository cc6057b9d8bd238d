/**
 * @file
 * Campaign journal implementation.  POSIX I/O by design: durability
 * comes from one write() + fsync() per chunk, and the reader parses a
 * whole-file snapshot so validation sees exactly what a restarted
 * process would.
 */

#include "faults/campaign_journal.hh"

#include <bit>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/logging.hh"

namespace fsp::faults {

namespace {

constexpr char kMagic[8] = {'F', 'S', 'P', 'J', 'N', 'L', '0', '3'};
constexpr std::uint64_t kFooterSentinel = ~std::uint64_t{0};
constexpr std::uint64_t kShardSentinel = ~std::uint64_t{0} - 1;
constexpr std::uint64_t kSectionSentinel = ~std::uint64_t{0} - 2;

struct JournalHeader
{
    char magic[8];
    std::uint64_t headerHash;
    std::uint64_t siteCount;
    std::uint64_t modelHash; ///< FaultModel::identityHash()
    std::uint64_t checksum;  ///< hash of every preceding field
};
static_assert(sizeof(JournalHeader) == 40, "header layout drifted");

/** Record flag bits. */
constexpr std::uint8_t kRecordHasAnatomy = 0x01;
constexpr std::uint8_t kRecordFromCache = 0x02; ///< section-cache replay
constexpr std::uint8_t kRecordFlagMask =
    kRecordHasAnatomy | kRecordFromCache;

struct JournalRecord
{
    std::uint64_t siteIndex;
    std::uint32_t outcome;
    std::uint32_t staticIndex; ///< InjectionDetail::staticIndex
    std::uint8_t pattern;      ///< SdcPattern (valid with kRecordHasAnatomy)
    std::uint8_t flags;        ///< kRecordHasAnatomy
    std::uint16_t pad0;
    std::uint32_t pad1;
    std::uint32_t magnitude[kMagnitudeBuckets]; ///< anatomy histogram
    std::uint32_t checksum; ///< hash of headerHash + every field above
};
static_assert(sizeof(JournalRecord) == 56, "record layout drifted");

/** Shard extension block, sealed right after the header (see ShardInfo). */
struct JournalShardExt
{
    std::uint64_t sentinel; ///< kShardSentinel, never a site index
    std::uint64_t campaignHash;
    std::uint64_t siteOffset;
    std::uint64_t campaignSites;
    std::uint32_t shardIndex;
    std::uint32_t shardCount;
    std::uint64_t checksum; ///< hash of headerHash + every field above
};
static_assert(sizeof(JournalShardExt) == 48, "shard ext layout drifted");

/** Per-section summary block (see JournalSectionSummary). */
struct JournalSectionBlock
{
    std::uint64_t sentinel; ///< kSectionSentinel, never a site index
    std::uint64_t sectionHash;
    std::uint64_t tailHash;
    std::uint64_t thread;
    std::uint32_t firstRecord;
    std::uint32_t recordCount;
    std::uint32_t sites;
    std::uint32_t cachedSites;
    std::uint32_t outcomes[4];
    std::uint32_t sdcPatterns[kNumSdcPatterns];
    std::uint64_t checksum; ///< hash of headerHash + every field above
};
static_assert(sizeof(JournalSectionBlock) == 96,
              "section block layout drifted");

struct JournalFooter
{
    std::uint64_t sentinel; ///< kFooterSentinel, never a site index
    double replaySeconds;
    double injectSeconds;
    double foldSeconds;
    double sitesPerSecond;
    std::uint64_t sitesDone;
    std::uint32_t workers;
    std::uint32_t checksum; ///< hash of every preceding field
};
static_assert(sizeof(JournalFooter) == 56, "footer layout drifted");

std::uint64_t
headerChecksum(const JournalHeader &header)
{
    JournalHasher hasher;
    hasher.update(header.magic, sizeof(header.magic));
    hasher.update(header.headerHash);
    hasher.update(header.siteCount);
    hasher.update(header.modelHash);
    return hasher.digest();
}

std::uint32_t
recordChecksum(std::uint64_t headerHash, const JournalRecord &record)
{
    JournalHasher hasher;
    hasher.update(headerHash);
    hasher.update(record.siteIndex);
    hasher.update(std::uint64_t{record.outcome});
    hasher.update(std::uint64_t{record.staticIndex});
    hasher.update(std::uint64_t{record.pattern});
    hasher.update(std::uint64_t{record.flags});
    for (std::uint32_t bucket : record.magnitude)
        hasher.update(std::uint64_t{bucket});
    return static_cast<std::uint32_t>(hasher.digest());
}

std::uint64_t
shardExtChecksum(std::uint64_t headerHash, const JournalShardExt &ext)
{
    JournalHasher hasher;
    hasher.update(headerHash);
    hasher.update(ext.sentinel);
    hasher.update(ext.campaignHash);
    hasher.update(ext.siteOffset);
    hasher.update(ext.campaignSites);
    hasher.update(std::uint64_t{ext.shardIndex});
    hasher.update(std::uint64_t{ext.shardCount});
    return hasher.digest();
}

std::uint64_t
sectionBlockChecksum(std::uint64_t headerHash,
                     const JournalSectionBlock &block)
{
    JournalHasher hasher;
    hasher.update(headerHash);
    hasher.update(block.sentinel);
    hasher.update(block.sectionHash);
    hasher.update(block.tailHash);
    hasher.update(block.thread);
    hasher.update(std::uint64_t{block.firstRecord});
    hasher.update(std::uint64_t{block.recordCount});
    hasher.update(std::uint64_t{block.sites});
    hasher.update(std::uint64_t{block.cachedSites});
    for (std::uint32_t tally : block.outcomes)
        hasher.update(std::uint64_t{tally});
    for (std::uint32_t tally : block.sdcPatterns)
        hasher.update(std::uint64_t{tally});
    return hasher.digest();
}

std::uint32_t
footerChecksum(std::uint64_t headerHash, const JournalFooter &footer)
{
    JournalHasher hasher;
    hasher.update(headerHash);
    hasher.update(footer.sentinel);
    hasher.update(footer.replaySeconds);
    hasher.update(footer.injectSeconds);
    hasher.update(footer.foldSeconds);
    hasher.update(footer.sitesPerSecond);
    hasher.update(footer.sitesDone);
    hasher.update(std::uint64_t{footer.workers});
    return static_cast<std::uint32_t>(hasher.digest());
}

[[noreturn]] void
throwErrno(const std::string &what, const std::string &path)
{
    throw JournalError(what + " '" + path + "': " + std::strerror(errno));
}

/** "0x1234abcd" -- hashes and checksums in diagnostics. */
std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/**
 * Diagnostics name the journal, the byte offset of the offending
 * entry, and (for hash mismatches) the expected-vs-found values, so
 * the corrupt shard of an N-shard campaign identifies itself.
 */
std::string
journalAt(const std::string &path, std::size_t offset)
{
    return "journal '" + path + "' (byte " + std::to_string(offset) + ")";
}

/** Read the whole file through @p fd (position is left undefined). */
std::vector<std::uint8_t>
readWholeFile(int fd, const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (::lseek(fd, 0, SEEK_SET) < 0)
        throwErrno("cannot seek journal", path);
    std::uint8_t buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("cannot read journal", path);
        }
        if (n == 0)
            break;
        bytes.insert(bytes.end(), buf, buf + n);
    }
    return bytes;
}

} // namespace

std::uint64_t
journalHeaderHash(const JournalKey &key, std::size_t count,
                  const std::function<const FaultSite &(std::size_t)> &siteAt,
                  const std::function<double(std::size_t)> &weightAt)
{
    JournalHasher hasher;
    hasher.update(key.tag);
    hasher.update(key.seed);
    hasher.update(static_cast<std::uint64_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
        const FaultSite &site = siteAt(i);
        hasher.update(site.thread);
        hasher.update(site.dynIndex);
        hasher.update(std::uint64_t{site.bit});
        hasher.update(weightAt(i));
    }
    return hasher.digest();
}

std::uint64_t
journalHeaderHash(const JournalKey &key,
                  const std::vector<WeightedSite> &sites)
{
    return journalHeaderHash(
        key, sites.size(),
        [&sites](std::size_t i) -> const FaultSite & {
            return sites[i].site;
        },
        [&sites](std::size_t i) { return sites[i].weight; });
}

std::uint64_t
journalHeaderHash(const JournalKey &key,
                  const std::vector<FaultSite> &sites)
{
    return journalHeaderHash(
        key, sites.size(),
        [&sites](std::size_t i) -> const FaultSite & { return sites[i]; },
        [](std::size_t) { return 1.0; });
}

CampaignJournal::CampaignJournal(std::string path, int fd,
                                 std::uint64_t headerHash)
    : path_(std::move(path)), fd_(fd), header_hash_(headerHash)
{
}

CampaignJournal::CampaignJournal(CampaignJournal &&other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_),
      header_hash_(other.header_hash_),
      pending_(std::move(other.pending_)),
      pending_records_(other.pending_records_),
      committed_(other.committed_)
{
    other.fd_ = -1;
}

CampaignJournal &
CampaignJournal::operator=(CampaignJournal &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        path_ = std::move(other.path_);
        fd_ = other.fd_;
        header_hash_ = other.header_hash_;
        pending_ = std::move(other.pending_);
        pending_records_ = other.pending_records_;
        committed_ = other.committed_;
        other.fd_ = -1;
    }
    return *this;
}

CampaignJournal::~CampaignJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

CampaignJournal
CampaignJournal::create(const std::string &path, std::uint64_t headerHash,
                        std::uint64_t modelHash, std::uint64_t siteCount,
                        const ShardInfo *shard)
{
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throwErrno("cannot create journal", path);
    CampaignJournal journal(path, fd, headerHash);

    JournalHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.headerHash = headerHash;
    header.siteCount = siteCount;
    header.modelHash = modelHash;
    header.checksum = headerChecksum(header);
    journal.writeAll(&header, sizeof(header));
    if (shard) {
        JournalShardExt ext{};
        ext.sentinel = kShardSentinel;
        ext.campaignHash = shard->campaignHash;
        ext.siteOffset = shard->siteOffset;
        ext.campaignSites = shard->campaignSites;
        ext.shardIndex = shard->shardIndex;
        ext.shardCount = shard->shardCount;
        ext.checksum = shardExtChecksum(headerHash, ext);
        journal.writeAll(&ext, sizeof(ext));
    }
    journal.syncToDisk();
    return journal;
}

namespace {

/**
 * Validate and replay a whole-file snapshot into @p resume; throws
 * JournalError with the file path, byte offset, and expected-vs-found
 * hash of the first problem.  Shared by openOrResume() and inspect()
 * so both see identical validation.
 */
void
parseJournal(const std::vector<std::uint8_t> &bytes,
             const std::string &path, std::uint64_t headerHash,
             std::uint64_t modelHash, std::uint64_t siteCount,
             CampaignJournal::Resume &resume)
{
    resume = CampaignJournal::Resume{};
    resume.outcomes.assign(siteCount, Outcome::Invalid);
    resume.details.assign(siteCount, InjectionDetail{});
    resume.done.assign(siteCount, false);
    resume.cached.assign(siteCount, false);

    if (bytes.size() < sizeof(JournalHeader)) {
        throw JournalError("journal '" + path +
                           "' is truncated: no complete header (" +
                           std::to_string(bytes.size()) + " of " +
                           std::to_string(sizeof(JournalHeader)) +
                           " header bytes)");
    }
    JournalHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
        if (std::memcmp(header.magic, kMagic, 6) == 0) {
            throw JournalError(
                "journal '" + path + "' uses format version " +
                std::string(header.magic + 6, 2) + ", this build reads " +
                std::string(kMagic + 6, 2) +
                "; delete the journal and rerun");
        }
        throw JournalError("'" + path + "' is not a campaign journal");
    }
    if (header.checksum != headerChecksum(header)) {
        throw JournalError(journalAt(path, 0) +
                           " has a corrupt header (checksum mismatch: "
                           "expected " + hex(headerChecksum(header)) +
                           ", found " + hex(header.checksum) + ")");
    }
    if (header.modelHash != modelHash && header.headerHash == headerHash) {
        throw JournalError(
            "journal '" + path +
            "' was recorded under a different fault model (journal model "
            "hash " + hex(header.modelHash) + ", campaign expects " +
            hex(modelHash) + "); resume with the original --fault-model "
            "or delete the journal");
    }
    if (header.headerHash != headerHash) {
        throw JournalError(
            "journal '" + path +
            "' has a stale header hash: it records a different campaign "
            "(site list, kernel/pruning config, or seed changed; journal "
            "hash " + hex(header.headerHash) + ", campaign expects " +
            hex(headerHash) + ")");
    }
    if (header.siteCount != siteCount) {
        throw JournalError("journal '" + path + "' covers " +
                           std::to_string(header.siteCount) +
                           " sites, campaign has " +
                           std::to_string(siteCount));
    }

    std::size_t offset = sizeof(JournalHeader);
    bool sawFooter = false;
    while (offset < bytes.size()) {
        if (sawFooter) {
            throw JournalError(journalAt(path, offset) +
                               " has trailing bytes after its footer");
        }
        std::uint64_t lead;
        if (bytes.size() - offset < sizeof(lead)) {
            throw JournalError(
                "journal '" + path + "' is truncated: partial record at "
                "byte " + std::to_string(offset));
        }
        std::memcpy(&lead, bytes.data() + offset, sizeof(lead));

        if (lead == kShardSentinel) {
            if (resume.shard) {
                throw JournalError(journalAt(path, offset) +
                                   " has a duplicate shard extension");
            }
            if (bytes.size() - offset < sizeof(JournalShardExt)) {
                throw JournalError("journal '" + path +
                                   "' is truncated: partial shard "
                                   "extension at byte " +
                                   std::to_string(offset));
            }
            JournalShardExt ext;
            std::memcpy(&ext, bytes.data() + offset, sizeof(ext));
            if (ext.checksum != shardExtChecksum(headerHash, ext)) {
                throw JournalError(
                    journalAt(path, offset) +
                    " has a corrupt shard extension (checksum mismatch: "
                    "expected " + hex(shardExtChecksum(headerHash, ext)) +
                    ", found " + hex(ext.checksum) + ")");
            }
            ShardInfo info;
            info.campaignHash = ext.campaignHash;
            info.siteOffset = ext.siteOffset;
            info.campaignSites = ext.campaignSites;
            info.shardIndex = ext.shardIndex;
            info.shardCount = ext.shardCount;
            resume.shard = info;
            offset += sizeof(ext);
            continue;
        }

        if (lead == kSectionSentinel) {
            if (bytes.size() - offset < sizeof(JournalSectionBlock)) {
                throw JournalError("journal '" + path +
                                   "' is truncated: partial section "
                                   "summary at byte " +
                                   std::to_string(offset));
            }
            JournalSectionBlock block;
            std::memcpy(&block, bytes.data() + offset, sizeof(block));
            if (block.checksum !=
                sectionBlockChecksum(headerHash, block)) {
                throw JournalError(
                    journalAt(path, offset) +
                    " has a corrupt section summary (checksum "
                    "mismatch: expected " +
                    hex(sectionBlockChecksum(headerHash, block)) +
                    ", found " + hex(block.checksum) + ")");
            }
            JournalSectionSummary summary;
            summary.sectionHash = block.sectionHash;
            summary.tailHash = block.tailHash;
            summary.thread = block.thread;
            summary.firstRecord = block.firstRecord;
            summary.recordCount = block.recordCount;
            summary.sites = block.sites;
            summary.cachedSites = block.cachedSites;
            for (std::size_t i = 0; i < 4; ++i)
                summary.outcomes[i] = block.outcomes[i];
            for (std::size_t i = 0; i < kNumSdcPatterns; ++i)
                summary.sdcPatterns[i] = block.sdcPatterns[i];
            resume.sections.push_back(summary);
            offset += sizeof(block);
            continue;
        }

        if (lead == kFooterSentinel) {
            if (bytes.size() - offset < sizeof(JournalFooter)) {
                throw JournalError("journal '" + path +
                                   "' is truncated: partial footer at "
                                   "byte " + std::to_string(offset));
            }
            JournalFooter footer;
            std::memcpy(&footer, bytes.data() + offset, sizeof(footer));
            if (footer.checksum != footerChecksum(headerHash, footer)) {
                throw JournalError(
                    journalAt(path, offset) +
                    " has a corrupt footer (checksum mismatch: expected " +
                    hex(footerChecksum(headerHash, footer)) + ", found " +
                    hex(footer.checksum) + ")");
            }
            resume.complete = true;
            resume.footer.replaySeconds = footer.replaySeconds;
            resume.footer.injectSeconds = footer.injectSeconds;
            resume.footer.foldSeconds = footer.foldSeconds;
            resume.footer.sitesPerSecond = footer.sitesPerSecond;
            resume.footer.sitesDone = footer.sitesDone;
            resume.footer.workers = footer.workers;
            offset += sizeof(footer);
            sawFooter = true;
            continue;
        }

        if (bytes.size() - offset < sizeof(JournalRecord)) {
            throw JournalError(
                "journal '" + path + "' is truncated: partial record at "
                "byte " + std::to_string(offset) + " (" +
                std::to_string(bytes.size() - offset) + " of " +
                std::to_string(sizeof(JournalRecord)) + " bytes)");
        }
        JournalRecord record;
        std::memcpy(&record, bytes.data() + offset, sizeof(record));
        std::size_t recordNumber = resume.doneCount;
        if (record.checksum != recordChecksum(headerHash, record)) {
            throw JournalError(
                journalAt(path, offset) +
                " has a corrupt record (checksum mismatch at record " +
                std::to_string(recordNumber) + ": expected " +
                hex(recordChecksum(headerHash, record)) + ", found " +
                hex(record.checksum) + ")");
        }
        if (record.siteIndex >= siteCount ||
            record.outcome > static_cast<std::uint32_t>(Outcome::Invalid) ||
            record.pattern >= kNumSdcPatterns ||
            (record.flags & ~kRecordFlagMask) != 0) {
            throw JournalError(journalAt(path, offset) +
                               " has a corrupt record (out-of-range "
                               "values at record " +
                               std::to_string(recordNumber) + ")");
        }
        if (resume.done[record.siteIndex]) {
            throw JournalError(journalAt(path, offset) +
                               " has a duplicate record for site " +
                               std::to_string(record.siteIndex));
        }
        resume.done[record.siteIndex] = true;
        if ((record.flags & kRecordFromCache) != 0) {
            resume.cached[record.siteIndex] = true;
            resume.cachedCount++;
        }
        resume.outcomes[record.siteIndex] =
            static_cast<Outcome>(record.outcome);
        InjectionDetail &detail = resume.details[record.siteIndex];
        detail.staticIndex = record.staticIndex;
        detail.hasAnatomy = (record.flags & kRecordHasAnatomy) != 0;
        if (detail.hasAnatomy) {
            detail.anatomy.pattern = static_cast<SdcPattern>(record.pattern);
            for (std::size_t i = 0; i < kMagnitudeBuckets; ++i)
                detail.anatomy.magnitude[i] = record.magnitude[i];
        }
        resume.doneCount++;
        offset += sizeof(record);
    }

    if (resume.complete && resume.doneCount != resume.footer.sitesDone) {
        throw JournalError(
            "journal '" + path + "' footer claims " +
            std::to_string(resume.footer.sitesDone) + " sites but " +
            std::to_string(resume.doneCount) + " records are present");
    }
}

} // namespace

CampaignJournal
CampaignJournal::openOrResume(const std::string &path,
                              std::uint64_t headerHash,
                              std::uint64_t modelHash,
                              std::uint64_t siteCount, Resume &resume)
{
    int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) {
        if (errno == ENOENT) {
            resume = Resume{};
            resume.outcomes.assign(siteCount, Outcome::Invalid);
            resume.details.assign(siteCount, InjectionDetail{});
            resume.done.assign(siteCount, false);
            resume.cached.assign(siteCount, false);
            return create(path, headerHash, modelHash, siteCount);
        }
        throwErrno("cannot open journal", path);
    }
    CampaignJournal journal(path, fd, headerHash);
    auto bytes = readWholeFile(fd, path);
    parseJournal(bytes, path, headerHash, modelHash, siteCount, resume);

    journal.committed_ = resume.doneCount;
    if (::lseek(fd, 0, SEEK_END) < 0)
        throwErrno("cannot seek journal", path);
    return journal;
}

CampaignJournal::Resume
CampaignJournal::inspect(const std::string &path, std::uint64_t headerHash,
                         std::uint64_t modelHash, std::uint64_t siteCount)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throwErrno("cannot open journal", path);
    std::vector<std::uint8_t> bytes;
    try {
        bytes = readWholeFile(fd, path);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    Resume resume;
    parseJournal(bytes, path, headerHash, modelHash, siteCount, resume);
    return resume;
}

void
CampaignJournal::append(std::uint64_t siteIndex, Outcome outcome,
                        const InjectionDetail &detail, bool fromCache)
{
    JournalRecord record{};
    record.siteIndex = siteIndex;
    record.outcome = static_cast<std::uint32_t>(outcome);
    record.staticIndex = detail.staticIndex;
    if (detail.hasAnatomy) {
        record.flags |= kRecordHasAnatomy;
        record.pattern = static_cast<std::uint8_t>(detail.anatomy.pattern);
        for (std::size_t i = 0; i < kMagnitudeBuckets; ++i)
            record.magnitude[i] = detail.anatomy.magnitude[i];
    }
    if (fromCache)
        record.flags |= kRecordFromCache;
    record.checksum = recordChecksum(header_hash_, record);
    const auto *p = reinterpret_cast<const std::uint8_t *>(&record);
    pending_.insert(pending_.end(), p, p + sizeof(record));
    pending_records_++;
}

void
CampaignJournal::appendSectionSummary(const JournalSectionSummary &summary)
{
    JournalSectionBlock block{};
    block.sentinel = kSectionSentinel;
    block.sectionHash = summary.sectionHash;
    block.tailHash = summary.tailHash;
    block.thread = summary.thread;
    block.firstRecord = summary.firstRecord;
    block.recordCount = summary.recordCount;
    block.sites = summary.sites;
    block.cachedSites = summary.cachedSites;
    for (std::size_t i = 0; i < 4; ++i)
        block.outcomes[i] = summary.outcomes[i];
    for (std::size_t i = 0; i < kNumSdcPatterns; ++i)
        block.sdcPatterns[i] = summary.sdcPatterns[i];
    block.checksum = sectionBlockChecksum(header_hash_, block);
    const auto *p = reinterpret_cast<const std::uint8_t *>(&block);
    pending_.insert(pending_.end(), p, p + sizeof(block));
}

CampaignJournal::CommitInfo
CampaignJournal::commitChunk()
{
    if (pending_.empty())
        return {};
    CommitInfo info;
    info.records = pending_records_;
    info.bytes = pending_.size();
    writeAll(pending_.data(), pending_.size());
    syncToDisk();
    committed_ += info.records;
    pending_.clear();
    pending_records_ = 0;
    return info;
}

CampaignJournal::CommitInfo
CampaignJournal::writeFooter(const Phases &phases)
{
    CommitInfo info = commitChunk();
    JournalFooter footer{};
    footer.sentinel = kFooterSentinel;
    footer.replaySeconds = phases.replaySeconds;
    footer.injectSeconds = phases.injectSeconds;
    footer.foldSeconds = phases.foldSeconds;
    footer.sitesPerSecond = phases.sitesPerSecond;
    footer.sitesDone = phases.sitesDone;
    footer.workers = phases.workers;
    footer.checksum = footerChecksum(header_hash_, footer);
    writeAll(&footer, sizeof(footer));
    syncToDisk();
    info.bytes += sizeof(footer);
    return info;
}

void
CampaignJournal::writeAll(const void *bytes, std::size_t size)
{
    FSP_ASSERT(fd_ >= 0, "journal used after move");
    const auto *p = static_cast<const std::uint8_t *>(bytes);
    while (size > 0) {
        ssize_t n = ::write(fd_, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("cannot write journal", path_);
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
}

void
CampaignJournal::syncToDisk()
{
    if (::fsync(fd_) < 0 && errno != EINVAL && errno != ENOTSUP)
        throwErrno("cannot fsync journal", path_);
}

} // namespace fsp::faults
