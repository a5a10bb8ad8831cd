#include "stats/cluster.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace netchar::stats
{

double
euclidean(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("euclidean: length mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return std::sqrt(acc);
}

namespace
{

/**
 * Average-linkage (UPGMA) Lance-Williams update of the distance
 * between merged cluster (i+j) and cluster k.
 */
double
lanceWilliams(double dik, double djk, std::size_t ni, std::size_t nj)
{
    const double wi =
        static_cast<double>(ni) / static_cast<double>(ni + nj);
    return wi * dik + (1.0 - wi) * djk;
}

} // namespace

Dendrogram
hierarchicalCluster(const Matrix &scores)
{
    const std::size_t n = scores.rows();
    if (n == 0)
        throw std::invalid_argument("hierarchicalCluster: empty input");

    Dendrogram dg;
    dg.leafCount = n;
    dg.nodes.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        dg.nodes[i].observation = static_cast<int>(i);
    if (n == 1)
        return dg;

    // Position-recycled active-cluster state. Positions 0..n_active-1
    // hold active clusters; the distance matrix is dense over
    // positions (float keeps it ~n^2*4 bytes so the 2,906-benchmark
    // clustering stays in tens of MB). nn[] caches each position's
    // nearest neighbor, giving amortized ~O(n^2) total work.
    std::size_t n_active = n;
    std::vector<int> node_at(n);          // position -> node id
    for (std::size_t i = 0; i < n; ++i)
        node_at[i] = static_cast<int>(i);
    std::vector<float> dist(n * n, 0.0f); // position-indexed
    auto d = [&](std::size_t a, std::size_t b) -> float & {
        return dist[a * n + b];
    };

    {
        std::vector<std::vector<double>> rows(n);
        for (std::size_t i = 0; i < n; ++i)
            rows[i] = scores.row(i);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                const auto dd =
                    static_cast<float>(euclidean(rows[i], rows[j]));
                d(i, j) = dd;
                d(j, i) = dd;
            }
        }
    }

    std::vector<std::size_t> nn(n);   // position -> nearest position
    std::vector<float> nn_dist(n);
    auto rescan_nn = [&](std::size_t p) {
        float best = std::numeric_limits<float>::infinity();
        std::size_t arg = p == 0 ? 1 : 0;
        for (std::size_t q = 0; q < n_active; ++q) {
            if (q == p)
                continue;
            const float dd = d(p, q);
            // Deterministic tie-break: smaller node id wins.
            if (dd < best ||
                (dd == best && node_at[q] < node_at[arg])) {
                best = dd;
                arg = q;
            }
        }
        nn[p] = arg;
        nn_dist[p] = best;
    };
    for (std::size_t p = 0; p < n_active; ++p)
        rescan_nn(p);

    while (n_active > 1) {
        // Closest pair via the nearest-neighbor cache.
        std::size_t pa = 0;
        for (std::size_t p = 1; p < n_active; ++p) {
            if (nn_dist[p] < nn_dist[pa] ||
                (nn_dist[p] == nn_dist[pa] &&
                 node_at[p] < node_at[pa]))
                pa = p;
        }
        std::size_t pb = nn[pa];
        if (pa > pb)
            std::swap(pa, pb);

        const int a = node_at[pa];
        const int b = node_at[pb];
        const double height = d(pa, pb);
        DendrogramNode merged;
        merged.left = std::min(a, b);
        merged.right = std::max(a, b);
        merged.height = height;
        merged.size = dg.nodes[static_cast<std::size_t>(a)].size +
                      dg.nodes[static_cast<std::size_t>(b)].size;
        const int id = static_cast<int>(dg.nodes.size());
        dg.nodes.push_back(merged);

        // Lance-Williams distances from the merged cluster (stored at
        // position pa) to every other active cluster.
        const std::size_t na =
            dg.nodes[static_cast<std::size_t>(a)].size;
        const std::size_t nb =
            dg.nodes[static_cast<std::size_t>(b)].size;
        for (std::size_t q = 0; q < n_active; ++q) {
            if (q == pa || q == pb)
                continue;
            const auto dd = static_cast<float>(
                lanceWilliams(d(pa, q), d(pb, q), na, nb));
            d(pa, q) = dd;
            d(q, pa) = dd;
        }
        node_at[pa] = id;

        // Retire position pb by moving the last active position in.
        const std::size_t last = n_active - 1;
        if (pb != last) {
            node_at[pb] = node_at[last];
            for (std::size_t q = 0; q < n_active; ++q) {
                d(pb, q) = d(last, q);
                d(q, pb) = d(q, last);
            }
            d(pb, pb) = 0.0f;
            nn[pb] = nn[last];
            nn_dist[pb] = nn_dist[last];
        }
        --n_active;
        if (n_active == 1)
            break;

        // Refresh nearest-neighbor caches invalidated by the merge:
        // the merged position itself, anything that pointed at the
        // old pa/pb/last positions, and anything now closer to pa.
        rescan_nn(pa);
        for (std::size_t p = 0; p < n_active; ++p) {
            if (p == pa)
                continue;
            const bool pointed_at_moved =
                nn[p] == pa || nn[p] == pb || nn[p] >= n_active;
            if (pointed_at_moved) {
                rescan_nn(p);
            } else if (d(p, pa) < nn_dist[p]) {
                nn[p] = pa;
                nn_dist[p] = d(p, pa);
            }
        }
    }
    return dg;
}

std::vector<std::size_t>
Dendrogram::leavesUnder(int node) const
{
    std::vector<std::size_t> out;
    std::vector<int> stack{node};
    while (!stack.empty()) {
        const int cur = stack.back();
        stack.pop_back();
        const auto &nd = nodes[static_cast<std::size_t>(cur)];
        if (nd.isLeaf()) {
            out.push_back(static_cast<std::size_t>(nd.observation));
        } else {
            // Push right first so left is visited first.
            stack.push_back(nd.right);
            stack.push_back(nd.left);
        }
    }
    return out;
}

std::vector<std::vector<std::size_t>>
Dendrogram::cut(std::size_t k) const
{
    if (k == 0 || k > leafCount)
        throw std::invalid_argument("Dendrogram::cut: bad k");

    // Undo the k-1 highest merges: start from the root and repeatedly
    // split the frontier node with the greatest height.
    std::vector<int> frontier{root()};
    while (frontier.size() < k) {
        std::size_t best = 0;
        double best_height = -1.0;
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            const auto &nd = nodes[static_cast<std::size_t>(frontier[i])];
            if (!nd.isLeaf() && nd.height > best_height) {
                best_height = nd.height;
                best = i;
            }
        }
        const auto &nd = nodes[static_cast<std::size_t>(frontier[best])];
        if (nd.isLeaf())
            break; // all leaves; cannot split further
        const int left = nd.left;
        const int right = nd.right;
        frontier.erase(frontier.begin() +
                       static_cast<std::ptrdiff_t>(best));
        frontier.push_back(left);
        frontier.push_back(right);
    }

    std::vector<std::vector<std::size_t>> clusters;
    clusters.reserve(frontier.size());
    for (int node : frontier) {
        auto leaves = leavesUnder(node);
        std::sort(leaves.begin(), leaves.end());
        clusters.push_back(std::move(leaves));
    }
    std::sort(clusters.begin(), clusters.end(),
              [](const auto &a, const auto &b) {
                  return a.front() < b.front();
              });
    return clusters;
}

std::string
Dendrogram::renderAscii(const std::vector<std::string> &labels) const
{
    if (labels.size() != leafCount)
        throw std::invalid_argument("renderAscii: label count mismatch");

    std::ostringstream os;
    // Depth-first render: internal nodes show the merge height; leaves
    // show their label. Indentation encodes depth.
    struct Frame { int node; int depth; };
    std::vector<Frame> stack{{root(), 0}};
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        const auto &nd = nodes[static_cast<std::size_t>(f.node)];
        for (int i = 0; i < f.depth; ++i)
            os << "  ";
        if (nd.isLeaf()) {
            os << "- "
               << labels[static_cast<std::size_t>(nd.observation)]
               << '\n';
        } else {
            os << "+ h=";
            os.precision(3);
            os << std::fixed << nd.height << '\n';
            stack.push_back({nd.right, f.depth + 1});
            stack.push_back({nd.left, f.depth + 1});
        }
    }
    return os.str();
}

std::vector<std::size_t>
pickRepresentatives(const Matrix &scores,
                    const std::vector<std::vector<std::size_t>> &clusters)
{
    std::vector<std::size_t> reps;
    reps.reserve(clusters.size());
    for (const auto &members : clusters) {
        if (members.empty())
            throw std::invalid_argument(
                "pickRepresentatives: empty cluster");
        std::vector<double> centroid(scores.cols(), 0.0);
        for (std::size_t m : members)
            for (std::size_t c = 0; c < scores.cols(); ++c)
                centroid[c] += scores(m, c);
        for (double &x : centroid)
            x /= static_cast<double>(members.size());

        std::size_t best = members.front();
        double best_dist = std::numeric_limits<double>::infinity();
        for (std::size_t m : members) {
            const double dd = euclidean(scores.row(m), centroid);
            if (dd < best_dist) {
                best_dist = dd;
                best = m;
            }
        }
        reps.push_back(best);
    }
    return reps;
}

} // namespace netchar::stats
