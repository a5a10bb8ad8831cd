/**
 * @file
 * `netchar_lint` — the repo's determinism & concurrency static
 * analyzer (see src/lint/rules.hh for the token rule set and
 * src/lint/taint.hh for the flow-aware taint pass).
 *
 *   netchar_lint --check <path>... [--json] [--sarif FILE]
 *                [--jobs N] [--stats]
 *                [--taint|--no-taint]
 *                [--concurrency|--no-concurrency]
 *   netchar_lint --list-rules
 *
 * Exit codes: 0 clean tree, 1 unsuppressed findings, 2 usage or I/O
 * error. The report is deterministic: sorted findings, byte-identical
 * across repeated runs, independent of directory enumeration order
 * and of --jobs. (--stats adds wall-clock timings, which are
 * inherently nondeterministic — leave it off when comparing report
 * bytes.)
 *
 * docs/CLI.md documents the tool; keep it in sync with usage().
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "lint/driver.hh"
#include "lint/lint.hh"
#include "lint/sarif.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: netchar_lint --check <path>... [--json] "
        "[--sarif FILE] [--jobs N]\n"
        "                    [--stats] [--taint|--no-taint] "
        "[--concurrency|--no-concurrency]\n"
        "       netchar_lint --list-rules\n"
        "  --check <path>...  lint files/directories (recursive)\n"
        "  --json             machine-readable report on stdout\n"
        "  --sarif FILE       also write a SARIF 2.1.0 report\n"
        "  --jobs N           analyze files on N threads (0 = one\n"
        "                     per hardware thread; default 1);\n"
        "                     never changes report bytes\n"
        "  --stats            append per-phase timings to the\n"
        "                     report\n"
        "  --taint            run the taint pass (default)\n"
        "  --no-taint         skip the taint pass\n"
        "  --concurrency      run the CFG/lockset pass (default)\n"
        "  --no-concurrency   skip the CFG/lockset pass\n"
        "  --list-rules       print the rule set and exit\n"
        "exit codes: 0 clean, 1 findings, 2 usage/I-O error\n"
        "suppression: // netchar-lint: allow(<rule>) -- <reason>\n"
        "             // netchar-lint: allow-flow(<rule>) -- "
        "<reason>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    bool json = false;
    bool stats = false;
    std::string sarifPath;
    netchar::lint::DriverOptions opts;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check")
            check = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--taint")
            opts.lint.taint = true;
        else if (arg == "--no-taint")
            opts.lint.taint = false;
        else if (arg == "--concurrency")
            opts.lint.concurrency = true;
        else if (arg == "--no-concurrency")
            opts.lint.concurrency = false;
        else if (arg == "--jobs") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "netchar_lint: --jobs needs a count\n");
                return usage();
            }
            char *rest = nullptr;
            const long n = std::strtol(argv[++i], &rest, 10);
            if (rest == nullptr || *rest != '\0' || n < 0) {
                std::fprintf(
                    stderr,
                    "netchar_lint: --jobs needs a non-negative "
                    "integer, got '%s'\n",
                    argv[i]);
                return usage();
            }
            opts.jobs = static_cast<unsigned>(n);
        } else if (arg == "--sarif") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "netchar_lint: --sarif needs a file\n");
                return usage();
            }
            sarifPath = argv[++i];
        } else if (arg == "--list-rules") {
            std::fputs(netchar::lint::listRulesText().c_str(),
                       stdout);
            return 0;
        } else if (!arg.empty() && arg.front() == '-') {
            std::fprintf(stderr, "netchar_lint: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else
            paths.push_back(arg);
    }

    if (!check || paths.empty())
        return usage();

    std::vector<std::string> errors;
    netchar::lint::LintStats lintStats;
    const netchar::lint::LintResult result =
        netchar::lint::runLint(paths, errors, opts, &lintStats);
    for (const std::string &e : errors)
        std::fprintf(stderr, "netchar_lint: %s\n", e.c_str());
    if (!errors.empty())
        return 2;

    if (!sarifPath.empty()) {
        std::ofstream out(sarifPath, std::ios::binary);
        out << netchar::lint::renderSarif(result);
        if (!out) {
            std::fprintf(stderr,
                         "netchar_lint: cannot write '%s'\n",
                         sarifPath.c_str());
            return 2;
        }
    }

    if (json) {
        std::fputs(netchar::lint::renderJson(
                       result, stats ? &lintStats : nullptr)
                       .c_str(),
                   stdout);
    } else {
        std::fputs(netchar::lint::renderText(result).c_str(),
                   stdout);
        if (stats)
            std::fputs(
                netchar::lint::renderStatsText(lintStats).c_str(),
                stdout);
    }
    return result.findings.empty() ? 0 : 1;
}
