#include "corpus.hh"

#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "harness.hh"

namespace perfbench
{

namespace
{

constexpr const char *kModules[] = {"core", "serve", "sim", "stats",
                                    "workloads", "lint"};

/**
 * Generation state. The shape stream is the same for every seed: it
 * fixes what the analysis has to do (statement kinds, call targets,
 * which files race or leak a lock), so lint cost does not depend on
 * the seed. The seed picks the constants and relabels the functions.
 */
struct Gen
{
    const CorpusShape &sizes;
    SeededRng shape;
    SeededRng value;
    /** Name label of each file's functions, a seeded permutation. */
    std::vector<std::size_t> label;

    std::string
    id(std::size_t file) const
    {
        return std::to_string(label[file]);
    }

    std::string
    fn(std::size_t file, std::size_t k) const
    {
        std::string name = "f";
        name += id(file);
        name += '_';
        name += std::to_string(k);
        return name;
    }

    std::string
    num(std::uint64_t lo, std::uint64_t hi)
    {
        return std::to_string(lo + value.below(hi - lo + 1));
    }
};

/** A guarded store class; some files add a raw lock()/unlock() pair
 *  that leaks the lock on an early return. */
std::string
storeClass(std::size_t i, Gen &g)
{
    std::string s = "class Store" + g.id(i) +
                    "\n{\n  public:\n"
                    "    void put(int v)\n    {\n"
                    "        std::lock_guard<std::mutex> lock(mu_);\n"
                    "        items_.push_back(v);\n    }\n\n"
                    "    int total()\n    {\n"
                    "        std::unique_lock<std::mutex> lock(mu_);\n"
                    "        int sum = 0;\n"
                    "        for (const int v : items_)\n"
                    "            sum += v;\n"
                    "        return sum;\n    }\n";
    if (g.shape.below(4) == 0)
        s += "\n    void putRaw(int v)\n    {\n        mu_.lock();\n"
             "        if (v < " + g.num(0, 9) +
             ")\n            return;\n"
             "        items_.push_back(v);\n        mu_.unlock();\n    }\n";
    return s + "\n  private:\n    std::mutex mu_;\n"
               "    std::vector<int> items_;\n};\n\n";
}

/** Arithmetic with branches and a loop, calling into other files. */
std::string
function(std::size_t i, std::size_t k, Gen &g)
{
    std::string s = "int\n" + g.fn(i, k) + "(int x)\n{\n    int acc = x + " +
                    g.num(1, 99) + ";\n";
    const std::uint64_t statements = 3 + g.shape.below(8);
    for (std::uint64_t n = 0; n < statements; ++n) {
        switch (g.shape.below(4)) {
        case 0:
            s += "    for (int n = 0; n < " + g.num(2, 64) +
                 "; ++n)\n        acc = acc * " + g.num(2, 9) + " + n;\n";
            break;
        case 1:
            s += "    if (acc % " + g.num(2, 7) + " == 0)\n        acc -= " +
                 g.num(1, 50) + ";\n    else\n        acc += " +
                 g.num(1, 50) + ";\n";
            break;
        case 2: {
            // A call into (usually) another file: the call graph, and
            // the SCCs the summaries are computed over, span files.
            const std::size_t file = g.shape.below(g.sizes.files);
            const std::size_t callee = g.shape.below(g.sizes.functionsPerFile);
            if (file != i || callee != k)
                s += "    acc += " + g.fn(file, callee) + "(acc / " +
                     g.num(2, 5) + ");\n";
            break;
        }
        default:
            s += "    acc ^= acc >> " + g.num(1, 7) + ";\n";
            break;
        }
    }
    return s + "    return acc;\n}\n\n";
}

/** Executor fan-out; some lambdas also bump a captured counter with
 *  no lock held (a race the concurrency pass reports). */
std::string
fanOut(std::size_t i, Gen &g)
{
    const bool racy = g.shape.below(5) == 0;
    std::string s = "void\nfan" + g.id(i) +
                    "(netchar::Executor &executor, Store" + g.id(i) +
                    " &store)\n{\n"
                    "    std::vector<int> slots(" + g.num(4, 64) + ");\n";
    if (racy)
        s += "    int shared = 0;\n";
    s += "    executor.forEach(slots.size(), [&](std::size_t t) {\n"
         "        slots[t] = " + g.fn(i, 0) + "(static_cast<int>(t));\n"
         "        store.put(slots[t]);\n";
    if (racy)
        s += "        shared += slots[t];\n";
    return s + "    });\n}\n\n";
}

/** A host-clock read, a formatting helper, and an emitter that sends
 *  its clock value through another file's helper into a
 *  serialization sink. */
std::string
clockFlow(std::size_t i, Gen &g)
{
    const std::string id = g.id(i);
    const std::string other = g.id(g.shape.below(g.sizes.files));
    return "double\nstamp" + id +
           "()\n{\n    return std::chrono::duration<double>(\n"
           "               std::chrono::steady_clock::now()"
           ".time_since_epoch())\n        .count();\n}\n\n"
           "std::string\nlabel" + id +
           "(double value)\n{\n    return std::to_string(value);\n}\n\n"
           "std::string\nemit" + id +
           "()\n{\n    return netchar::jsonEscape(label" + other +
           "(stamp" + id + "()));\n}\n\n";
}

} // namespace

std::vector<CorpusFile>
generateCorpus(std::uint64_t seed, const CorpusShape &shape)
{
    Gen g{shape, SeededRng(0xC0FFEE5EEDULL), SeededRng(seed ^ 0x5EEDC0DEULL),
          std::vector<std::size_t>(shape.files)};
    std::iota(g.label.begin(), g.label.end(), std::size_t{0});
    for (std::size_t i = g.label.size(); i > 1; --i)
        std::swap(g.label[i - 1], g.label[g.value.below(i)]);

    std::vector<CorpusFile> files;
    for (std::size_t i = 0; i < shape.files; ++i) {
        const char *module = kModules[i % std::size(kModules)];
        std::string s = "// Generated lint-corpus file " + std::to_string(i) +
                        " (seed " + std::to_string(seed) + ").\n\n"
                        "#include <chrono>\n#include <mutex>\n"
                        "#include <string>\n#include <vector>\n\n"
                        "#include \"core/executor.hh\"\n"
                        "#include \"stats/textio.hh\"\n\n"
                        "namespace corpus\n{\n\n";
        s += storeClass(i, g);
        for (std::size_t k = 0; k < shape.functionsPerFile; ++k)
            s += function(i, k, g);
        s += fanOut(i, g);
        if (i % 4 == 0)
            s += clockFlow(i, g);
        s += "} // namespace corpus\n";
        files.push_back({"src/" + std::string(module) + "/gen_" +
                             std::to_string(i) + ".cc",
                         std::move(s)});
    }
    return files;
}

void
writeCorpus(const std::vector<CorpusFile> &files, const std::string &root)
{
    namespace fs = std::filesystem;
    fs::remove_all(root);
    for (const CorpusFile &f : files) {
        const fs::path path = fs::path(root) / f.path;
        fs::create_directories(path.parent_path());
        std::ofstream out(path, std::ios::binary);
        out << f.content;
        if (!out)
            throw std::runtime_error("cannot write " + path.string());
    }
}

} // namespace perfbench
