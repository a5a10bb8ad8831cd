#include "sim/prefetch.hh"

#include <stdexcept>

namespace netchar::sim
{

StreamPrefetcher::StreamPrefetcher(const PrefetcherParams &params)
    : params_(params), streams_(1, params.streams)
{
    if (params_.streams == 0 || params_.lineBytes == 0 ||
        params_.pageBytes < 2)
        throw std::invalid_argument("StreamPrefetcher: bad params");
}

std::vector<std::uint64_t>
StreamPrefetcher::observe(std::uint64_t addr)
{
    const std::uint64_t line = addr / params_.lineBytes;
    const std::uint64_t page = addr / params_.pageBytes;

    // Find the stream for this page, or allocate one (LRU victim,
    // preferring invalid slots).
    auto *entry = streams_.touch(page);
    if (entry == nullptr) {
        streams_.stamp(streams_.victim(page), page, {line, 0, 0});
        return {};
    }

    Stream *stream = &entry->data;
    std::vector<std::uint64_t> out;
    if (line == stream->lastLine)
        return out; // same line, no new direction information

    const int dir = line > stream->lastLine ? 1 : -1;
    if (dir == stream->direction) {
        if (stream->confidence < 255)
            ++stream->confidence;
    } else {
        stream->direction = dir;
        stream->confidence = 1;
    }
    stream->lastLine = line;

    if (stream->confidence < params_.trainThreshold)
        return out;

    const std::uint64_t lines_per_page =
        params_.pageBytes / params_.lineBytes;
    for (unsigned i = 1; i <= params_.degree; ++i) {
        const std::int64_t target =
            static_cast<std::int64_t>(line) +
            static_cast<std::int64_t>(i) * dir;
        if (target < 0)
            break;
        const auto tline = static_cast<std::uint64_t>(target);
        if (!params_.crossPageHint &&
            tline / lines_per_page != page)
            break; // real prefetchers stop at the page boundary
        out.push_back(tline * params_.lineBytes);
    }
    return out;
}

void
StreamPrefetcher::reset()
{
    streams_.clear();
}

} // namespace netchar::sim
