#include "core/export.hh"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace netchar
{

namespace
{

void
requireSameLength(const std::vector<std::string> &names,
                  const std::vector<RunResult> &results)
{
    if (names.size() != results.size())
        throw std::invalid_argument(
            "export: names/results length mismatch");
}

/** A level-2 node: a frontend or backend child, a topdownCsv column. */
bool
isLevel2(const sim::SlotNodeInfo &node)
{
    return node.category == sim::SlotCategory::Frontend ||
           node.category == sim::SlotCategory::Backend;
}

} // namespace

std::string
exportNumber(double value)
{
    std::ostringstream os;
    os.precision(10);
    os << value;
    return os.str();
}

std::string
metricsCsvHeader()
{
    std::string header = "benchmark";
    for (const auto &info : metricTable())
        header += ',' + csvField(std::string(info.name));
    return header;
}

std::string
metricsCsvRow(const std::string &name, const RunResult &result)
{
    std::string row = csvField(name);
    for (double v : result.metrics)
        row += ',' + exportNumber(v);
    return row;
}

std::string
suiteText(bool csv, const std::string &header,
          const std::vector<std::string> &rows)
{
    std::string out;
    if (csv) {
        out = header + '\n';
        for (const auto &row : rows)
            out += row + '\n';
        return out;
    }
    out = '[';
    for (std::size_t i = 0; i < rows.size(); ++i)
        out += (i > 0 ? "," : "") + rows[i];
    out += ']';
    return out;
}

std::string
metricsCsv(const std::vector<std::string> &names,
           const std::vector<RunResult> &results)
{
    requireSameLength(names, results);
    std::vector<std::string> rows;
    rows.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        rows.push_back(metricsCsvRow(names[i], results[i]));
    return suiteText(true, metricsCsvHeader(), rows);
}

std::string
topdownCsv(const std::vector<std::string> &names,
           const std::vector<RunResult> &results)
{
    requireSameLength(names, results);
    std::ostringstream os;
    os << "benchmark";
    for (const auto &cat : sim::kSlotCategories)
        os << ',' << cat.key;
    for (const auto &node : sim::kSlotNodes)
        if (isLevel2(node))
            os << ',' << node.key;
    os << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &slots = results[i].slots;
        os << csvField(names[i]);
        for (std::size_t c = 0; c < std::size(sim::kSlotCategories); ++c)
            os << ',' << exportNumber(slots.categoryFraction(
                             static_cast<sim::SlotCategory>(c)));
        for (std::size_t n = 0; n < std::size(sim::kSlotNodes); ++n)
            if (isLevel2(sim::kSlotNodes[n]))
                os << ',' << exportNumber(slots.fraction(
                                 static_cast<sim::SlotNode>(n)));
        os << '\n';
    }
    return os.str();
}

std::string
runResultJson(const std::string &name, const RunResult &result)
{
    const auto &c = result.counters;
    std::ostringstream os;
    os << "{\"benchmark\":\"" << jsonEscape(name) << "\",";
    os << "\"seconds\":" << exportNumber(result.seconds) << ',';
    os << "\"instructions\":" << c.instructions << ',';
    os << "\"cycles\":" << exportNumber(c.cycles) << ',';
    os << "\"metrics\":{";
    bool first = true;
    for (const auto &info : metricTable()) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(std::string(info.name)) << "\":"
           << exportNumber(
                  result.metrics[static_cast<std::size_t>(info.id)]);
    }
    os << "},\"topdown\":{";
    for (std::size_t i = 0; i < std::size(sim::kSlotCategories); ++i)
        os << (i ? "," : "") << '"' << sim::kSlotCategories[i].key
           << "\":"
           << exportNumber(result.slots.categoryFraction(
                  static_cast<sim::SlotCategory>(i)));
    os << "},\"events\":{";
    for (std::size_t k = 0; k < std::size(trace::kTraceEventKinds); ++k)
        os << (k ? "," : "") << '"' << trace::kTraceEventKinds[k].key
           << "\":"
           << result.events.count(static_cast<trace::TraceEventKind>(k));
    os << "}}";
    return os.str();
}

std::string
suiteStatsCsv(const SuiteRunStats &stats)
{
    std::ostringstream os;
    os << "index,benchmark,attempts,succeeded,wall_seconds,worker,"
          "error\n";
    for (const auto &r : stats.runs) {
        os << r.index << ',' << csvField(r.benchmark) << ','
           << r.attempts << ',' << (r.succeeded ? 1 : 0) << ','
           << exportNumber(r.wallSeconds) << ',' << r.worker << ','
           << csvField(r.error) << '\n';
    }
    return os.str();
}

std::string
suiteStatsJson(const SuiteRunStats &stats)
{
    std::ostringstream os;
    os << "{\"jobs\":" << stats.jobs << ',';
    os << "\"wall_seconds\":" << exportNumber(stats.wallSeconds)
       << ',';
    os << "\"busy_seconds\":" << exportNumber(stats.busySeconds)
       << ',';
    os << "\"utilization\":" << exportNumber(stats.utilization())
       << ',';
    os << "\"steals\":" << stats.steals << ',';
    os << "\"retried_runs\":" << stats.retriedRuns() << ',';
    os << "\"failed_runs\":" << stats.failedRuns() << ',';
    os << "\"skipped_runs\":" << stats.skippedRuns() << ',';
    os << "\"quarantined\":[";
    for (std::size_t i = 0; i < stats.quarantined.size(); ++i) {
        if (i > 0)
            os << ',';
        os << '"' << jsonEscape(stats.quarantined[i]) << '"';
    }
    os << "],";
    os << "\"runs\":[";
    for (std::size_t i = 0; i < stats.runs.size(); ++i) {
        const auto &r = stats.runs[i];
        if (i > 0)
            os << ',';
        os << "{\"index\":" << r.index << ",\"benchmark\":\""
           << jsonEscape(r.benchmark) << "\",\"attempts\":"
           << r.attempts << ",\"succeeded\":"
           << (r.succeeded ? "true" : "false")
           << ",\"skipped\":" << (r.skipped ? "true" : "false")
           << ",\"quarantined\":"
           << (r.quarantined ? "true" : "false")
           << ",\"wall_seconds\":" << exportNumber(r.wallSeconds)
           << ",\"worker\":" << r.worker << ",\"error\":\""
           << jsonEscape(r.error) << "\"}";
    }
    os << "]}";
    return os.str();
}

std::string
failureLedgerCsv(const SuiteRunStats &stats)
{
    std::ostringstream os;
    os << "index,benchmark,attempt,kind,seed,backoff_micros,error\n";
    for (const auto &f : stats.failures) {
        os << f.index << ',' << csvField(f.benchmark) << ','
           << f.attempt << ',' << csvField(f.kind) << ',' << f.seed
           << ',' << f.backoffMicros << ',' << csvField(f.error)
           << '\n';
    }
    return os.str();
}

std::string
failureLedgerJson(const SuiteRunStats &stats)
{
    return failureLedgerJson(stats.failures);
}

std::string
failureLedgerJson(const std::vector<RunFailure> &failures)
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const auto &f = failures[i];
        if (i > 0)
            os << ',';
        os << "{\"index\":" << f.index << ",\"benchmark\":\""
           << jsonEscape(f.benchmark) << "\",\"attempt\":"
           << f.attempt << ",\"kind\":\"" << jsonEscape(f.kind)
           << "\",\"seed\":" << f.seed << ",\"backoff_micros\":"
           << f.backoffMicros << ",\"error\":\""
           << jsonEscape(f.error) << "\"}";
    }
    os << ']';
    return os.str();
}

std::string
suiteJson(const std::vector<std::string> &names,
          const std::vector<RunResult> &results)
{
    requireSameLength(names, results);
    std::vector<std::string> rows;
    rows.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        rows.push_back(runResultJson(names[i], results[i]));
    return suiteText(false, {}, rows);
}

} // namespace netchar
