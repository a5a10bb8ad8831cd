/**
 * @file
 * Figure 1 reproduction: the similarity dendrogram of the 44 .NET
 * categories. Characterizes every category, clusters the top-4 PRCO
 * scores, prints the merge tree, and underlines the 8-category
 * representative subset the pipeline selects.
 */

#include "common.hh"
#include "core/report.hh"
#include "core/subset.hh"
#include "workloads/dotnet.hh"

using namespace netchar;

NETCHAR_BENCH(fig01_dendrogram,
              "Figure 1: similarity dendrogram of the 44 .NET "
              "categories with the 8-element subset underlined")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = wl::dotnetCategories();
    const auto results =
        bench::runSuite(ch, profiles, bench::standardOptions());

    std::vector<MetricVector> rows;
    for (const auto &r : results)
        rows.push_back(r.metrics);

    SubsetOptions opts;
    opts.subsetSize = 8;
    const auto subset = buildSubset(rows, opts);

    std::vector<std::string> labels;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        bool is_rep = false;
        for (std::size_t rep : subset.representatives)
            is_rep = is_rep || rep == i;
        // "Underline" the chosen subset as in the paper's figure.
        labels.push_back(is_rep ? "__" + profiles[i].name + "__"
                                : profiles[i].name);
    }

    ctx.printf("Figure 1: similarity between benchmarks in the .NET "
               "suite\n");
    ctx.printf("(agglomerative clustering, average linkage, over "
               "top-4 PRCO scores; representative subset "
               "__underlined__)\n\n");
    ctx.printf("%s\n",
               subset.dendrogram.renderAscii(labels).c_str());

    ctx.printf("8 clusters at the subset cut:\n");
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        ctx.printf("  cluster %zu:", c + 1);
        for (std::size_t m : subset.clusters[c])
            ctx.printf(" %s", profiles[m].name.c_str());
        ctx.printf("\n");
    }
    ctx.metric("clusters", "count",
               static_cast<double>(subset.clusters.size()));
}
