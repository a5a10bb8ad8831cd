#include "lint/driver.hh"

#include <fstream>
#include <sstream>

#include "core/executor.hh"

namespace netchar::lint
{

LintResult
runLint(const std::vector<std::string> &paths,
        std::vector<std::string> &errors, const DriverOptions &opts,
        LintStats *stats)
{
    if (stats != nullptr)
        *stats = LintStats{};

    const std::vector<std::string> files =
        discoverFiles(paths, errors);

    // Contents are read serially: discovery already fixed the
    // order, and `errors` must not depend on task interleaving.
    std::vector<SourceBuffer> sources;
    sources.reserve(files.size());
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            errors.push_back(file + ": cannot open");
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        sources.push_back({file, buf.str()});
    }

    // Each task writes only its own slot, and the assembly below
    // walks the slots in sorted-path order, so the report bytes
    // never depend on the job count.
    std::vector<FileUnit> units(sources.size());
    const auto analyzeAt = [&](std::size_t i) {
        units[i] =
            analyzeFileUnit(sources[i].path, sources[i].content);
    };
    if (opts.jobs != 1 && sources.size() > 1) {
        Executor pool(opts.jobs);
        pool.forEach(sources.size(), analyzeAt);
    } else {
        for (std::size_t i = 0; i < sources.size(); ++i)
            analyzeAt(i);
    }

    return assembleUnits(std::move(units), opts.lint, stats);
}

} // namespace netchar::lint
