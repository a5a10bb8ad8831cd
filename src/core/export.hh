/**
 * @file
 * Machine-readable export of characterization results: CSV for
 * spreadsheet/pandas pipelines and a minimal JSON serialization for
 * dashboards. Every bench prints human-readable tables; downstream
 * tooling should consume these exports instead of scraping text.
 */

#ifndef NETCHAR_CORE_EXPORT_HH
#define NETCHAR_CORE_EXPORT_HH

#include <string>
#include <vector>

#include "core/characterize.hh"
#include "stats/textio.hh" // jsonEscape / csvField (shared helpers)

namespace netchar
{

/**
 * A double as every export and serve body renders it: ostream
 * default notation at 10 significant digits.
 */
std::string exportNumber(double value);

/** metricsCsv's header line (`benchmark`, then the Table I names),
 *  without its newline. */
std::string metricsCsvHeader();

/** One metricsCsv data row, without its newline. */
std::string metricsCsvRow(const std::string &name,
                          const RunResult &result);

/**
 * The one suite-text joiner behind metricsCsv, suiteJson and the
 * merged serve sweep. CSV (`csv` true): `header`, then each row,
 * every line ending in a newline. JSON: the rows as the elements of
 * one array; `header` is unused.
 */
std::string suiteText(bool csv, const std::string &header,
                      const std::vector<std::string> &rows);

/**
 * CSV of Table I metrics: one row per benchmark, one column per
 * metric (header uses the Table I names), preceded by a `benchmark`
 * column. Fields containing commas/quotes are quoted per RFC 4180.
 *
 * @param names One label per result row.
 * @param results Same length as names (throws otherwise).
 */
std::string metricsCsv(const std::vector<std::string> &names,
                       const std::vector<RunResult> &results);

/**
 * CSV of Top-Down level-1 + level-2 fractions, one row per benchmark.
 */
std::string topdownCsv(const std::vector<std::string> &names,
                       const std::vector<RunResult> &results);

/**
 * JSON document for one run: counters, metrics (keyed by Table I
 * name), Top-Down profile and runtime events. Self-contained; no
 * external JSON library.
 */
std::string runResultJson(const std::string &name,
                          const RunResult &result);

/**
 * JSON array of runResultJson objects.
 */
std::string suiteJson(const std::vector<std::string> &names,
                      const std::vector<RunResult> &results);

/**
 * CSV of the run ledger: one row per run
 * (index,benchmark,attempts,succeeded,wall_seconds,worker,error),
 * in input order.
 */
std::string suiteStatsCsv(const SuiteRunStats &stats);

/**
 * JSON document of one sweep's SuiteRunStats: engine aggregates
 * (jobs, wall/busy seconds, utilization, steals, retried/failed/
 * skipped run counts, quarantined benchmarks) plus the per-run
 * ledger array.
 */
std::string suiteStatsJson(const SuiteRunStats &stats);

/**
 * CSV of the deterministic failure ledger: one row per failed
 * attempt (index,benchmark,attempt,kind,seed,backoff_micros,error),
 * sorted by (index, attempt). Contains no wall times or worker ids,
 * so for a keep-going sweep the bytes are identical at any --jobs.
 */
std::string failureLedgerCsv(const SuiteRunStats &stats);

/** JSON array form of failureLedgerCsv (same fields, same order). */
std::string failureLedgerJson(const SuiteRunStats &stats);

/** The same JSON array for a bare failure list: the one renderer,
 *  shared with a serve sweep body's `failures`. */
std::string failureLedgerJson(const std::vector<RunFailure> &failures);

} // namespace netchar

#endif // NETCHAR_CORE_EXPORT_HH
