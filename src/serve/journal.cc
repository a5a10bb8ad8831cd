#include "serve/journal.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats/hash.hh" // contentHashHex (record checksums)

namespace netchar::serve
{

namespace
{

constexpr std::string_view kJournalHeader = "netchar-journal/v1\n";

} // namespace

std::string
journalRecord(const std::string &key, const std::string &body)
{
    std::ostringstream os;
    os << "R " << key.size() << ' ' << body.size() << ' '
       << contentHashHex(key + body) << '\n'
       << key << body << '\n';
    return os.str();
}

CacheJournal::~CacheJournal() { close(); }

void
CacheJournal::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
    path_.clear();
    bytes_ = 0;
}

bool
CacheJournal::open(const std::string &path, std::string &error)
{
    close();
    std::FILE *file = std::fopen(path.c_str(), "ab");
    if (file == nullptr) {
        error = "cannot open journal '" + path + "' for append";
        return false;
    }
    file_ = file;
    path_ = path;
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    bytes_ = ec ? 0 : size;
    if (bytes_ == 0) {
        if (std::fwrite(kJournalHeader.data(), 1,
                        kJournalHeader.size(),
                        file_) != kJournalHeader.size() ||
            std::fflush(file_) != 0) {
            error = "cannot write journal header to '" + path + "'";
            close();
            return false;
        }
        bytes_ = kJournalHeader.size();
    }
    return true;
}

bool
CacheJournal::append(const std::string &key, const std::string &body,
                     std::string &error)
{
    if (file_ == nullptr) {
        error = "journal is not open";
        return false;
    }
    const std::string record = journalRecord(key, body);
    if (std::fwrite(record.data(), 1, record.size(), file_) !=
            record.size() ||
        std::fflush(file_) != 0) {
        error = "short write to journal '" + path_ + "'";
        return false;
    }
    bytes_ += record.size();
    return true;
}

bool
CacheJournal::compact(const ResultCache &cache, std::string &error)
{
    if (path_.empty()) {
        error = "journal is not open";
        return false;
    }
    // Temp file + rename(): the old journal stays whole until the
    // compacted one is complete, so a crash mid-compaction loses
    // nothing the file already held.
    const std::string tmp = path_ + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) {
        error = "cannot write journal '" + tmp + "'";
        return false;
    }
    bool written = std::fwrite(kJournalHeader.data(), 1,
                               kJournalHeader.size(),
                               out) == kJournalHeader.size();
    // One record at a time, LRU-first: replay restores in file
    // order, so the entry that was MRU comes back MRU.
    cache.forEachLruFirst(
        [&](const std::string &key, const std::string &body) {
            if (!written)
                return;
            const std::string record = journalRecord(key, body);
            written = std::fwrite(record.data(), 1, record.size(),
                                  out) == record.size();
        });
    written = std::fflush(out) == 0 && written;
    written = std::fclose(out) == 0 && written;
    std::error_code ec;
    if (written)
        std::filesystem::rename(tmp, path_, ec);
    if (!written || ec) {
        error = written ? "cannot move journal '" + tmp +
                              "' into place: " + ec.message()
                        : "short write to journal '" + tmp + "'";
        std::filesystem::remove(tmp, ec);
        return false;
    }
    if (file_ != nullptr)
        std::fclose(file_);
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr) {
        bytes_ = 0;
        error = "cannot reopen journal '" + path_ + "' for append";
        return false;
    }
    bytes_ = kJournalHeader.size();
    return true;
}

bool
CacheJournal::replay(
    const std::string &path,
    std::vector<std::pair<std::string, std::string>> &entries,
    JournalRecoveryReport &report, std::string &error)
{
    report = {};
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return true; // fresh daemon: nothing journaled yet
    std::ifstream in(path, std::ios::binary);
    const std::uint64_t size = std::filesystem::file_size(path, ec);
    if (!in || ec) {
        error = "cannot read journal '" + path + "'";
        return false;
    }
    if (size == 0)
        return true; // created but never written: clean empty state

    // Record by record, never the whole file: a compacted journal
    // holds the whole cache, and a file-sized buffer beside the
    // recovered entries would double start-up memory.
    std::string line(kJournalHeader.size(), '\0');
    if (size < line.size() ||
        !in.read(line.data(), static_cast<std::streamsize>(line.size())) ||
        line != kJournalHeader) {
        // A foreign or torn header means nothing in the file can be
        // trusted — recover an empty cache rather than failing the
        // start: the cache refills on demand, answers never change.
        report.bytesDropped = size;
        report.note = "unrecognized journal header; dropped file";
        return true;
    }

    std::uint64_t pos = kJournalHeader.size();
    std::string key;
    std::string body;
    while (pos < size) {
        const std::uint64_t recordStart = pos;
        const auto stop = [&](const char *why) {
            ++report.recordsDropped;
            report.bytesDropped = size - recordStart;
            report.note = why;
        };
        // eof() here means the line ran out of file before its '\n'.
        if (!std::getline(in, line) || in.eof()) {
            stop("torn record header at tail");
            break;
        }
        std::istringstream fields(line);
        char tag = '\0';
        std::uint64_t keyLen = 0;
        std::uint64_t bodyLen = 0;
        std::string checksum;
        if (!(fields >> tag >> keyLen >> bodyLen >> checksum) ||
            tag != 'R' || checksum.size() != 32) {
            stop("corrupt record header");
            break;
        }
        const std::uint64_t payloadStart = pos + line.size() + 1;
        // Key, body and the trailing newline must fit in what is
        // left; compared by subtraction, so a corrupt length near
        // 2^64 cannot wrap the sum.
        const std::uint64_t remaining = size - payloadStart;
        if (keyLen > remaining || bodyLen > remaining - keyLen ||
            remaining - keyLen - bodyLen < 1) {
            stop("torn record payload at tail");
            break;
        }
        key.resize(keyLen);
        body.resize(bodyLen);
        char newline = '\0';
        if (!in.read(key.data(), static_cast<std::streamsize>(keyLen)) ||
            !in.read(body.data(),
                     static_cast<std::streamsize>(bodyLen)) ||
            !in.get(newline)) {
            error = "cannot read journal '" + path + "'";
            return false;
        }
        if (newline != '\n' || contentHashHex(key + body) != checksum) {
            stop("record checksum mismatch");
            break;
        }
        entries.emplace_back(std::move(key), std::move(body));
        ++report.recordsRecovered;
        pos = payloadStart + keyLen + bodyLen + 1;
    }
    return true;
}

bool
CacheJournal::truncateTail(const std::string &path,
                           std::uint64_t tailBytes, std::string &error)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) {
        error = "cannot stat journal '" + path +
                "': " + ec.message();
        return false;
    }
    const std::uint64_t keep = size > tailBytes ? size - tailBytes : 0;
    std::filesystem::resize_file(path, keep, ec);
    if (ec) {
        error = "cannot truncate journal '" + path +
                "': " + ec.message();
        return false;
    }
    return true;
}

} // namespace netchar::serve
