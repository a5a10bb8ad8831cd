#include "workloads/spec.hh"

#include <stdexcept>

namespace netchar::wl
{

namespace
{

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * 1024;

/**
 * Baseline native SPEC benchmark. Relative to managed suites (§V):
 * no CLR/kernel time, denser and smaller code, more loads and fewer
 * stores, far more diverse branch behavior, and much larger data
 * footprints (1:100 simulation scale of the up-to-16 GB real sets).
 */
WorkloadProfile
specBase(const char *name, const char *description, std::uint64_t seed)
{
    WorkloadProfile p;
    p.name = name;
    p.suite = Suite::SpecCpu17;
    p.description = description;
    p.seed = seed;
    p.instructions = 2'000'000;
    p.branchFrac = 0.15;
    p.loadFrac = 0.36;
    p.storeFrac = 0.11;
    p.mulFrac = 0.04;
    p.divFrac = 0.002;
    p.microcodedFrac = 0.002;
    p.kernelFrac = 0.005;
    p.kernelBurstLen = 80.0;
    p.ilp = 2.4;
    p.mlp = 3.0;
    p.methods = 220;
    p.meanMethodBytes = 1000;
    p.methodZipf = 1.50;
    p.callFrac = 0.10;
    p.takenFrac = 0.62;
    p.branchBias = 0.93;
    p.dataFootprint = 32 * MiB;
    p.dataZipf = 0.70;
    p.streamFrac = 0.20;
    p.stackFrac = 0.30;
    // SPEC exercises all levels of the hierarchy (Fig 8: L1d ~29,
    // L2 ~11, LLC ~0.98 MPKI geomeans, with wide spread).
    p.warmFrac = 0.040;
    p.coolFrac = 0.014;
    p.managed = false; // no CLR: the defining difference
    p.exceptionPki = 0.0;
    p.contentionPki = 0.0;
    return p;
}

} // namespace

std::vector<WorkloadProfile>
specBenchmarks()
{
    std::vector<WorkloadProfile> out;
    out.reserve(kSpecBenchmarks);
    std::uint64_t seed = 0x53EC'0000'0000'0000ULL;
    auto add = [&](WorkloadProfile p) {
        p.validate();
        out.push_back(std::move(p));
    };

    // ---- SPECint ----
    {
        auto p = specBase("perlbench", "Perl interpreter", ++seed);
        p.branchFrac = 0.21;
        p.branchBias = 0.90;
        p.methods = 700;
        p.meanMethodBytes = 1400;
        p.dataFootprint = 12 * MiB;
        p.dataZipf = 0.95;
        p.ilp = 1.9;
        p.methodZipf = 1.25;
        add(p);
    }
    {
        auto p = specBase("gcc", "GNU C compiler", ++seed);
        p.branchFrac = 0.22;
        p.branchBias = 0.89;
        p.methods = 1800;
        p.meanMethodBytes = 1600;
        p.dataFootprint = 24 * MiB;
        p.dataZipf = 0.85;
        p.ilp = 1.8;
        p.mlp = 2.0;
        p.warmFrac = 0.05;
        p.coolFrac = 0.02;
        p.methodZipf = 1.15;
        add(p);
    }
    {
        // Pointer-chasing graph optimizer: the memory-bound extreme.
        auto p = specBase("mcf", "Vehicle scheduling (MCF)", ++seed);
        p.branchFrac = 0.19;
        p.branchBias = 0.91;
        p.methods = 40;
        p.meanMethodBytes = 700;
        p.dataFootprint = 160 * MiB;
        p.dataZipf = 0.35;
        p.streamFrac = 0.05;
        p.stackFrac = 0.10;
        p.loadFrac = 0.40;
        p.ilp = 1.2;
        p.mlp = 1.6;
        p.warmFrac = 0.06;
        p.coolFrac = 0.10;
        add(p);
    }
    {
        auto p = specBase("omnetpp", "Discrete event simulation",
                          ++seed);
        p.branchFrac = 0.20;
        p.branchBias = 0.90;
        p.methods = 900;
        p.dataFootprint = 64 * MiB;
        p.dataZipf = 0.55;
        p.stackFrac = 0.20;
        p.ilp = 1.6;
        p.mlp = 1.8;
        p.warmFrac = 0.05;
        p.coolFrac = 0.04;
        p.methodZipf = 1.30;
        add(p);
    }
    {
        // The branchiest SPEC program (§V-B).
        auto p = specBase("xalancbmk", "XSLT processor", ++seed);
        p.branchFrac = 0.26;
        p.branchBias = 0.87;
        p.methods = 1200;
        p.meanMethodBytes = 1100;
        p.dataFootprint = 16 * MiB;
        p.dataZipf = 0.80;
        p.ilp = 1.7;
        p.warmFrac = 0.05;
        p.coolFrac = 0.02;
        p.methodZipf = 1.20;
        add(p);
    }
    {
        auto p = specBase("x264", "Video encoder", ++seed);
        p.branchFrac = 0.09;
        p.branchBias = 0.92;
        p.streamFrac = 0.55;
        p.mulFrac = 0.08;
        p.dataFootprint = 20 * MiB;
        p.ilp = 3.4;
        p.mlp = 4.5;
        add(p);
    }
    {
        auto p = specBase("deepsjeng", "Chess search", ++seed);
        p.branchFrac = 0.17;
        p.branchBias = 0.91;
        p.methods = 120;
        p.dataFootprint = 7 * MiB;
        p.dataZipf = 0.9;
        p.ilp = 2.0;
        p.warmFrac = 0.03;
        p.coolFrac = 0.008;
        add(p);
    }
    {
        auto p = specBase("leela", "Go engine (MCTS)", ++seed);
        p.branchFrac = 0.18;
        p.branchBias = 0.90;
        p.methods = 260;
        p.dataFootprint = 4 * MiB;
        p.dataZipf = 0.85;
        p.ilp = 1.9;
        p.warmFrac = 0.025;
        p.coolFrac = 0.006;
        add(p);
    }
    {
        // Tiny footprint, very high retiring fraction.
        auto p = specBase("exchange2", "Recursive sudoku solver",
                          ++seed);
        p.branchFrac = 0.20;
        p.branchBias = 0.95;
        p.methods = 30;
        p.meanMethodBytes = 2400;
        p.dataFootprint = 640 * KiB;
        p.dataZipf = 1.2;
        p.stackFrac = 0.50;
        p.ilp = 2.8;
        p.warmFrac = 0.008;
        p.coolFrac = 0.001;
        add(p);
    }
    {
        auto p = specBase("xz", "LZMA compression", ++seed);
        p.branchFrac = 0.16;
        p.branchBias = 0.90;
        p.streamFrac = 0.35;
        p.dataFootprint = 64 * MiB;
        p.dataZipf = 0.6;
        p.ilp = 2.0;
        p.mlp = 2.4;
        p.warmFrac = 0.04;
        p.coolFrac = 0.03;
        add(p);
    }

    // ---- SPECfp ----
    {
        // Streaming-dominated CFD solver with a huge grid.
        auto p = specBase("bwaves", "Blast-wave CFD solver", ++seed);
        p.branchFrac = 0.03;
        p.branchBias = 0.99;
        p.loadFrac = 0.44;
        p.storeFrac = 0.12;
        p.mulFrac = 0.10;
        p.streamFrac = 0.85;
        p.methods = 25;
        p.meanMethodBytes = 3200;
        p.dataFootprint = 160 * MiB;
        p.dataZipf = 0.3;
        p.stackFrac = 0.06;
        p.ilp = 3.2;
        p.mlp = 6.0;
        p.warmFrac = 0.02;
        p.coolFrac = 0.02;
        add(p);
    }
    {
        auto p = specBase("cactuBSSN", "Numerical relativity stencil",
                          ++seed);
        p.branchFrac = 0.04;
        p.branchBias = 0.985;
        p.loadFrac = 0.42;
        p.mulFrac = 0.12;
        p.streamFrac = 0.70;
        p.methods = 60;
        p.meanMethodBytes = 5200;
        p.dataFootprint = 96 * MiB;
        p.dataZipf = 0.4;
        p.ilp = 2.8;
        p.mlp = 5.0;
        p.stackFrac = 0.10;
        add(p);
    }
    {
        auto p = specBase("lbm", "Lattice Boltzmann method", ++seed);
        p.branchFrac = 0.02;
        p.branchBias = 0.995;
        p.loadFrac = 0.42;
        p.storeFrac = 0.16;
        p.streamFrac = 0.90;
        p.methods = 15;
        p.dataFootprint = 128 * MiB;
        p.dataZipf = 0.25;
        p.stackFrac = 0.04;
        p.ilp = 3.0;
        p.mlp = 7.0;
        p.warmFrac = 0.015;
        p.coolFrac = 0.015;
        add(p);
    }
    {
        // Weather model: the big-code FP program.
        auto p = specBase("wrf", "Weather research & forecasting",
                          ++seed);
        p.branchFrac = 0.08;
        p.branchBias = 0.95;
        p.mulFrac = 0.09;
        p.streamFrac = 0.45;
        p.methods = 1500;
        p.meanMethodBytes = 2600;
        p.dataFootprint = 48 * MiB;
        p.dataZipf = 0.55;
        p.ilp = 2.6;
        p.mlp = 3.5;
        p.methodZipf = 1.25;
        add(p);
    }
    {
        auto p = specBase("cam4", "Community atmosphere model",
                          ++seed);
        p.branchFrac = 0.10;
        p.branchBias = 0.93;
        p.methods = 1200;
        p.meanMethodBytes = 2200;
        p.streamFrac = 0.40;
        p.dataFootprint = 40 * MiB;
        p.dataZipf = 0.6;
        p.ilp = 2.4;
        p.mlp = 3.0;
        p.methodZipf = 1.25;
        add(p);
    }
    {
        auto p = specBase("pop2", "Ocean circulation model", ++seed);
        p.branchFrac = 0.07;
        p.branchBias = 0.95;
        p.streamFrac = 0.55;
        p.methods = 800;
        p.meanMethodBytes = 2000;
        p.dataFootprint = 56 * MiB;
        p.dataZipf = 0.45;
        p.ilp = 2.6;
        p.mlp = 4.0;
        add(p);
    }
    {
        auto p = specBase("imagick", "Image manipulation", ++seed);
        p.branchFrac = 0.06;
        p.branchBias = 0.97;
        p.mulFrac = 0.14;
        p.streamFrac = 0.60;
        p.methods = 300;
        p.dataFootprint = 16 * MiB;
        p.dataZipf = 0.7;
        p.ilp = 3.5;
        p.mlp = 4.0;
        add(p);
    }
    {
        auto p = specBase("nab", "Molecular dynamics", ++seed);
        p.branchFrac = 0.07;
        p.branchBias = 0.96;
        p.mulFrac = 0.13;
        p.dataFootprint = 8 * MiB;
        p.dataZipf = 0.8;
        p.streamFrac = 0.30;
        p.ilp = 3.0;
        p.mlp = 3.0;
        add(p);
    }
    {
        auto p = specBase("fotonik3d", "Electromagnetics FDTD",
                          ++seed);
        p.branchFrac = 0.03;
        p.branchBias = 0.99;
        p.loadFrac = 0.45;
        p.streamFrac = 0.85;
        p.methods = 40;
        p.dataFootprint = 112 * MiB;
        p.dataZipf = 0.3;
        p.stackFrac = 0.05;
        p.ilp = 2.9;
        p.mlp = 6.5;
        p.warmFrac = 0.02;
        p.coolFrac = 0.02;
        add(p);
    }
    {
        auto p = specBase("roms", "Regional ocean modeling", ++seed);
        p.branchFrac = 0.05;
        p.branchBias = 0.97;
        p.streamFrac = 0.70;
        p.methods = 500;
        p.meanMethodBytes = 1800;
        p.dataFootprint = 80 * MiB;
        p.dataZipf = 0.4;
        p.ilp = 2.8;
        p.mlp = 5.0;
        p.stackFrac = 0.12;
        add(p);
    }

    if (out.size() != kSpecBenchmarks)
        throw std::logic_error("spec: benchmark count drifted");
    return out;
}

} // namespace netchar::wl
