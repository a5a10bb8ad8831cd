#include "core/correlation.hh"

#include "stats/summary.hh"
#include "trace/analyzer.hh"

namespace netchar
{

std::string
counterSeriesName(CounterSeries series)
{
    switch (series) {
      case CounterSeries::BranchMpki: return "branch MPKI";
      case CounterSeries::L1iMpki: return "L1 I-cache MPKI";
      case CounterSeries::L1dMpki: return "L1 D-cache MPKI";
      case CounterSeries::L2Mpki: return "L2 MPKI";
      case CounterSeries::LlcMpki: return "LLC MPKI";
      case CounterSeries::ItlbMpki: return "I-TLB MPKI";
      case CounterSeries::PageFaultsPki: return "page faults PKI";
      case CounterSeries::UselessPrefetches:
        return "useless prefetch ratio";
      case CounterSeries::Instructions: return "instructions";
      case CounterSeries::Ipc: return "IPC";
      default: return "unknown";
    }
}

std::vector<double>
extractSeries(const std::vector<IntervalSample> &samples,
              CounterSeries series)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const auto &s : samples) {
        const auto &c = s.counters;
        switch (series) {
          case CounterSeries::BranchMpki:
            out.push_back(c.mpki(c.branchMisses));
            break;
          case CounterSeries::L1iMpki:
            out.push_back(c.mpki(c.l1iMisses));
            break;
          case CounterSeries::L1dMpki:
            out.push_back(c.mpki(c.l1dMisses));
            break;
          case CounterSeries::L2Mpki:
            out.push_back(c.mpki(c.l2Misses));
            break;
          case CounterSeries::LlcMpki:
            out.push_back(c.mpki(c.llcMisses));
            break;
          case CounterSeries::ItlbMpki:
            out.push_back(c.mpki(c.itlbMisses));
            break;
          case CounterSeries::PageFaultsPki:
            out.push_back(c.mpki(c.pageFaults));
            break;
          case CounterSeries::UselessPrefetches:
            // Ratio, not count: removes the activity-level
            // confounder so the series reflects prefetch *accuracy*.
            out.push_back(
                c.prefetchesIssued > 0
                    ? static_cast<double>(c.prefetchesUseless) /
                          static_cast<double>(c.prefetchesIssued)
                    : 0.0);
            break;
          case CounterSeries::Instructions:
            out.push_back(static_cast<double>(c.instructions));
            break;
          case CounterSeries::Ipc:
            out.push_back(c.ipc());
            break;
        }
    }
    return out;
}

std::vector<double>
extractEventSeries(const std::vector<IntervalSample> &samples,
                   rt::RuntimeEventType type)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const auto &s : samples)
        out.push_back(static_cast<double>(s.events.count(type)));
    return out;
}

std::vector<CorrelationRow>
correlateEvents(const std::vector<IntervalSample> &samples,
                rt::RuntimeEventType type)
{
    const auto event_series = extractEventSeries(samples, type);
    const CounterSeries selections[] = {
        CounterSeries::BranchMpki,    CounterSeries::L1iMpki,
        CounterSeries::L2Mpki,        CounterSeries::LlcMpki,
        CounterSeries::PageFaultsPki,
        CounterSeries::UselessPrefetches,
        CounterSeries::Instructions,  CounterSeries::Ipc,
    };
    std::vector<CorrelationRow> rows;
    rows.reserve(std::size(selections));
    for (const auto series : selections) {
        CorrelationRow row;
        row.series = series;
        row.name = counterSeriesName(series);
        const auto counter_series = extractSeries(samples, series);
        row.r = stats::pearson(event_series, counter_series);
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<CorrelationRow>
correlateTrace(const trace::Trace &trace, rt::RuntimeEventType type,
               double interval_cycles, std::size_t max_samples)
{
    const trace::TraceAnalyzer analyzer(trace);
    return correlateEvents(
        analyzer.reslice(interval_cycles, max_samples), type);
}

} // namespace netchar
