/**
 * @file
 * `netchar_lint` — the repo's determinism & concurrency static
 * analyzer (see src/lint/rules.hh for the token rule set and
 * src/lint/taint.hh for the flow-aware taint pass).
 *
 *   netchar_lint --check <path>... [--json] [--sarif FILE] [--stats]
 *   netchar_lint --list-rules
 *
 * Every pass (token rules, taint, concurrency) always runs. Exit
 * codes: 0 clean tree, 1 unsuppressed findings, 2 usage or I/O
 * error. The report is deterministic: sorted findings, byte-identical
 * across repeated runs and independent of directory enumeration
 * order. (--stats adds wall-clock timings, which are inherently
 * nondeterministic — leave it off when comparing report bytes.)
 *
 * docs/CLI.md documents the tool; keep it in sync with usage().
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

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
        "[--sarif FILE] [--stats]\n"
        "       netchar_lint --list-rules\n"
        "  --check <path>...  lint files/directories (recursive)\n"
        "  --json             machine-readable report on stdout\n"
        "  --sarif FILE       also write a SARIF 2.1.0 report\n"
        "  --stats            append per-phase timings to the\n"
        "                     report\n"
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
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check")
            check = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--sarif") {
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
        netchar::lint::runLint(paths, errors, {}, &lintStats);
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
