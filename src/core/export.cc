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
metricsCsv(const std::vector<std::string> &names,
           const std::vector<RunResult> &results)
{
    requireSameLength(names, results);
    std::ostringstream os;
    os << "benchmark";
    for (const auto &info : metricTable())
        os << ',' << csvField(std::string(info.name));
    os << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << csvField(names[i]);
        for (double v : results[i].metrics)
            os << ',' << exportNumber(v);
        os << '\n';
    }
    return os.str();
}

std::string
topdownCsv(const std::vector<std::string> &names,
           const std::vector<RunResult> &results)
{
    requireSameLength(names, results);
    std::ostringstream os;
    os << "benchmark,retiring,bad_speculation,frontend_bound,"
          "backend_bound,fe_icache,fe_itlb,fe_btb,fe_ms,fe_dsb_bw,"
          "fe_mite_bw,be_l1,be_l2,be_l3,be_dram,be_store,be_ports,"
          "be_divider\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto td = TopDownProfile::fromSlots(results[i].slots);
        os << csvField(names[i]);
        for (const double v :
             {td.level1.retiring, td.level1.badSpeculation,
              td.level1.frontendBound, td.level1.backendBound,
              td.frontend.icacheMisses, td.frontend.itlbMisses,
              td.frontend.branchResteers, td.frontend.msSwitches,
              td.frontend.dsbBandwidth, td.frontend.miteBandwidth,
              td.backend.l1Bound, td.backend.l2Bound, td.backend.l3Bound,
              td.backend.dramBound, td.backend.storeBound,
              td.backend.portsUtilization, td.backend.divider})
            os << ',' << exportNumber(v);
        os << '\n';
    }
    return os.str();
}

std::string
runResultJson(const std::string &name, const RunResult &result)
{
    const auto &c = result.counters;
    const auto td = TopDownProfile::fromSlots(result.slots);
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
    os << "\"retiring\":" << exportNumber(td.level1.retiring) << ',';
    os << "\"bad_speculation\":"
       << exportNumber(td.level1.badSpeculation) << ',';
    os << "\"frontend_bound\":" << exportNumber(td.level1.frontendBound)
       << ',';
    os << "\"backend_bound\":" << exportNumber(td.level1.backendBound);
    os << "},\"events\":{";
    os << "\"gc_triggered\":" << result.events.gcTriggered << ',';
    os << "\"gc_allocation_tick\":" << result.events.gcAllocationTick
       << ',';
    os << "\"jit_started\":" << result.events.jitStarted << ',';
    os << "\"exception_start\":" << result.events.exceptionStart
       << ',';
    os << "\"contention_start\":" << result.events.contentionStart;
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
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < stats.failures.size(); ++i) {
        const auto &f = stats.failures[i];
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
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0)
            os << ',';
        os << runResultJson(names[i], results[i]);
    }
    os << ']';
    return os.str();
}

} // namespace netchar
