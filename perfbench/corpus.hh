/**
 * @file
 * Seeded C++ corpus for the lint-cold workload. The bytes are a pure
 * function of (seed, shape) — no clock, environment or filesystem
 * input — so the linted input stays fixed while src/ changes. The
 * seed varies constants and function names only; the code structure
 * the analysis walks is the same for every seed, so lint time does
 * not vary with it.
 *
 * The corpus is shaped like the repo's own tree, under src/<module>/,
 * so directory-scoped rules apply, and it exercises every analysis
 * layer: cross-file calls for the call graph and summaries, mutex
 * members behind lock_guard/unique_lock (and some raw lock()/unlock()
 * pairs), Executor::forEach lambdas writing captured state, and host
 * clock reads that reach a serialization sink through helpers in
 * other files.
 */

#ifndef PERFBENCH_CORPUS_HH
#define PERFBENCH_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct CorpusFile
{
    /** Path relative to the corpus root, e.g. "src/core/gen_3.cc". */
    std::string path;
    std::string content;
};

struct CorpusShape
{
    std::size_t files = 128;
    std::size_t functionsPerFile = 14;
};

std::vector<CorpusFile> generateCorpus(std::uint64_t seed,
                                       const CorpusShape &shape);

/**
 * Write `files` under `root`, replacing whatever was there. Throws
 * std::runtime_error when a file cannot be written.
 */
void writeCorpus(const std::vector<CorpusFile> &files,
                 const std::string &root);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_HH
