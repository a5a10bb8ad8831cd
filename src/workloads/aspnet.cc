#include "workloads/aspnet.hh"

#include <stdexcept>

namespace netchar::wl
{

namespace
{

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * 1024;

/**
 * Baseline ASP.NET server benchmark: request/response processing on a
 * big managed code base over the kernel networking stack. Relative to
 * the .NET microbenchmarks: much more kernel time, much bigger code
 * footprint (Kestrel + middleware + MVC), moderate heaps, lower ILP.
 */
WorkloadProfile
aspnetBase(const char *name, const char *description,
           std::uint64_t seed)
{
    WorkloadProfile p;
    p.name = name;
    p.suite = Suite::AspNet;
    p.description = description;
    p.seed = seed;
    p.instructions = 2'000'000;
    p.branchFrac = 0.18;
    p.loadFrac = 0.29;
    p.storeFrac = 0.16;
    p.mulFrac = 0.015;
    p.divFrac = 0.0005;
    p.microcodedFrac = 0.02;
    p.kernelFrac = 0.38; // networking stack dominates (§V-A)
    p.kernelBurstLen = 220.0;
    p.ilp = 1.6;
    p.mlp = 1.8;
    p.cpuUtil = 0.92;
    p.methods = 1600;      // Kestrel + middleware + app code
    p.meanMethodBytes = 1200;
    p.methodZipf = 1.00;
    p.callFrac = 0.18;
    p.takenFrac = 0.60;
    p.branchBias = 0.94;
    p.dataFootprint = 4 * MiB; // scaled working set (< 500 MiB real)
    p.dataZipf = 0.85;
    p.streamFrac = 0.15;
    p.stackFrac = 0.32;
    // Request churn touches L2-scale state but stays LLC-resident
    // (Fig 8: L1d ~15.9, L2 ~20.4, LLC ~0.16 MPKI).
    p.warmFrac = 0.006;
    p.coolFrac = 0.025;
    p.managed = true;
    p.allocBytesPerInst = 0.55; // per-request object churn
    p.maxHeapBytes = 32 * MiB;
    p.tierUpCallThreshold = 48;
    p.exceptionPki = 0.01;
    p.contentionPki = 0.05;
    return p;
}

} // namespace

std::vector<WorkloadProfile>
aspnetBenchmarks()
{
    std::vector<WorkloadProfile> out;
    out.reserve(kAspNetBenchmarks);
    std::uint64_t seed = 0xA59'4E37'0000'0000ULL;
    auto add = [&](WorkloadProfile p) {
        p.validate();
        out.push_back(std::move(p));
    };

    // ---- Table IV's eight representative scenarios ----
    {
        // Renders sorted DB query results to HTML.
        auto p = aspnetBase("DbFortunesRaw",
                            "Renders sorted DB query results to HTML",
                            ++seed);
        p.kernelFrac = 0.42;
        p.allocBytesPerInst = 0.70;
        p.dataFootprint = 5 * MiB;
        add(p);
    }
    {
        auto p = aspnetBase("MvcDbFortunesRaw",
                            "Fortunes rendering via the MVC backend",
                            ++seed);
        p.methods = 2100; // MVC adds a routing/view layer
        p.kernelFrac = 0.40;
        p.allocBytesPerInst = 0.80;
        p.dataFootprint = 6 * MiB;
        add(p);
    }
    {
        auto p = aspnetBase("MvcDbMultiUpdateRaw",
                            "Serializes multiple DB updates as JSON",
                            ++seed);
        p.methods = 2100;
        p.storeFrac = 0.20;
        p.allocBytesPerInst = 0.90;
        p.dataFootprint = 7 * MiB;
        add(p);
    }
    {
        // Plaintext: pipelined tiny responses; kernel-bound.
        auto p = aspnetBase("Plaintext",
                            "Plaintext strings from pipelined queries",
                            ++seed);
        p.kernelFrac = 0.52;
        p.methods = 900;
        p.allocBytesPerInst = 0.15;
        p.dataFootprint = 1536 * KiB;
        p.cpuUtil = 0.98;
        add(p);
    }
    {
        auto p = aspnetBase("Json",
                            "Serializes a simple JSON document", ++seed);
        p.kernelFrac = 0.45;
        p.allocBytesPerInst = 0.40;
        p.dataFootprint = 2 * MiB;
        add(p);
    }
    {
        auto p = aspnetBase("CopyToAsync",
                            "Reads POST body, returns plaintext",
                            ++seed);
        p.kernelFrac = 0.48;
        p.streamFrac = 0.40;
        p.dataFootprint = 3 * MiB;
        p.allocBytesPerInst = 0.25;
        add(p);
    }
    {
        auto p = aspnetBase("MvcJsonNetOutput2M",
                            "Sends a 2 MB JSON document (MVC)", ++seed);
        p.methods = 2100;
        p.streamFrac = 0.45;
        p.storeFrac = 0.20;
        p.dataFootprint = 8 * MiB;
        p.allocBytesPerInst = 1.0;
        p.mlp = 2.6;
        add(p);
    }
    {
        auto p = aspnetBase("MvcJsonNetInput2M",
                            "Receives a 2 MB JSON document (MVC)",
                            ++seed);
        p.methods = 2100;
        p.streamFrac = 0.40;
        p.loadFrac = 0.33;
        p.dataFootprint = 8 * MiB;
        p.allocBytesPerInst = 1.1;
        p.mlp = 2.4;
        add(p);
    }

    // ---- The remaining TechEmpower/ASP.NET scenarios ----
    struct Tweak
    {
        const char *name;
        const char *description;
        double kernel;
        double alloc;
        std::uint64_t data_mib;
        unsigned methods;
        double stream;
    };
    const Tweak tweaks[] = {
        {"PlaintextNonPipelined", "Plaintext, one request per conn",
         0.55, 0.12, 1, 900, 0.12},
        {"PlaintextMvc", "Plaintext through MVC routing",
         0.45, 0.30, 2, 2100, 0.12},
        {"JsonPlatform", "JSON on the bare platform layer",
         0.47, 0.30, 2, 700, 0.15},
        {"JsonMvc", "JSON through MVC", 0.40, 0.55, 3, 2100, 0.15},
        {"JsonHttpListener", "JSON on HttpListener",
         0.50, 0.40, 2, 800, 0.15},
        {"DbSingleQueryRaw", "Single DB row, raw ADO.NET",
         0.42, 0.55, 4, 1500, 0.14},
        {"DbSingleQueryDapper", "Single DB row via Dapper",
         0.40, 0.65, 4, 1700, 0.14},
        {"DbSingleQueryEf", "Single DB row via EF Core",
         0.36, 0.85, 6, 2300, 0.13},
        {"DbMultiQueryRaw", "20 DB rows, raw ADO.NET",
         0.40, 0.70, 6, 1500, 0.16},
        {"DbMultiQueryDapper", "20 DB rows via Dapper",
         0.38, 0.80, 6, 1700, 0.16},
        {"DbMultiQueryEf", "20 DB rows via EF Core",
         0.34, 0.95, 8, 2300, 0.14},
        {"DbMultiUpdateRaw", "20 DB updates, raw ADO.NET",
         0.38, 0.85, 7, 1500, 0.16},
        {"DbMultiUpdateDapper", "20 DB updates via Dapper",
         0.36, 0.90, 7, 1700, 0.16},
        {"DbMultiUpdateEf", "20 DB updates via EF Core",
         0.33, 1.05, 8, 2300, 0.14},
        {"DbFortunesDapper", "Fortunes via Dapper",
         0.40, 0.80, 5, 1700, 0.15},
        {"DbFortunesEf", "Fortunes via EF Core",
         0.35, 0.95, 7, 2300, 0.14},
        {"MvcDbSingleQueryRaw", "Single DB row, MVC",
         0.38, 0.65, 5, 2100, 0.14},
        {"MvcDbMultiQueryRaw", "20 DB rows, MVC",
         0.37, 0.80, 6, 2100, 0.15},
        {"MvcJson", "JSON through full MVC stack",
         0.38, 0.60, 3, 2100, 0.15},
        {"MvcPlaintext", "Plaintext through full MVC stack",
         0.42, 0.35, 2, 2100, 0.12},
        {"MvcJsonNetInput60K", "Receives 60 KB JSON (MVC)",
         0.40, 0.75, 4, 2100, 0.30},
        {"MvcJsonNetOutput60K", "Sends 60 KB JSON (MVC)",
         0.41, 0.70, 4, 2100, 0.32},
        {"MvcJsonInput2M", "Receives 2 MB JSON, S.T.Json (MVC)",
         0.40, 0.95, 8, 2100, 0.40},
        {"MvcJsonOutput2M", "Sends 2 MB JSON, S.T.Json (MVC)",
         0.41, 0.90, 8, 2100, 0.42},
        {"StaticFiles", "Serves static file content",
         0.50, 0.20, 3, 1100, 0.35},
        {"Websockets", "Echo over persistent websockets",
         0.48, 0.30, 2, 1300, 0.25},
        {"SignalRBroadcast", "SignalR hub broadcast",
         0.42, 0.55, 4, 1900, 0.20},
        {"SignalREcho", "SignalR echo", 0.44, 0.45, 3, 1900, 0.20},
        {"GrpcUnary", "gRPC unary calls", 0.43, 0.50, 3, 1600, 0.20},
        {"GrpcServerStreaming", "gRPC server streaming",
         0.45, 0.55, 4, 1600, 0.30},
        {"GrpcClientStreaming", "gRPC client streaming",
         0.45, 0.55, 4, 1600, 0.28},
        {"HttpsJson", "JSON over TLS", 0.46, 0.45, 3, 1800, 0.22},
        {"HttpsPlaintext", "Plaintext over TLS",
         0.50, 0.25, 2, 1500, 0.22},
        {"Http2Json", "JSON over HTTP/2", 0.45, 0.50, 3, 1800, 0.20},
        {"Http2Plaintext", "Plaintext over HTTP/2",
         0.49, 0.30, 2, 1500, 0.18},
        {"ResponseCaching", "In-memory response cache hits",
         0.40, 0.30, 5, 1400, 0.18},
        {"MemoryCachePlaintext", "MemoryCache-backed plaintext",
         0.40, 0.35, 5, 1400, 0.16},
        {"Mvc2kQueries", "2000-row query burst (MVC)",
         0.34, 1.10, 10, 2100, 0.18},
        {"ConnectionClose", "Connection-per-request stress",
         0.55, 0.30, 2, 1100, 0.12},
        {"ConnectionKeepAlive", "Keep-alive connection reuse",
         0.46, 0.25, 2, 1100, 0.12},
        {"UrlRouting", "Endpoint-routing micro paths",
         0.38, 0.45, 2, 1900, 0.12},
        {"AuthJwt", "JWT bearer authentication",
         0.40, 0.55, 3, 2000, 0.15},
        {"RequestLogging", "Request logging middleware on",
         0.42, 0.65, 4, 1900, 0.15},
        {"Orchard", "Orchard CMS page render",
         0.33, 1.00, 12, 2600, 0.14},
        {"BlazorServer", "Blazor server circuit updates",
         0.36, 0.90, 8, 2400, 0.16},
    };
    for (const auto &t : tweaks) {
        auto p = aspnetBase(t.name, t.description, ++seed);
        p.kernelFrac = t.kernel;
        p.allocBytesPerInst = t.alloc;
        p.dataFootprint = t.data_mib * MiB;
        p.maxHeapBytes = std::max<std::uint64_t>(
            p.maxHeapBytes, 4 * p.dataFootprint);
        p.methods = t.methods;
        p.streamFrac = t.stream;
        add(p);
    }

    if (out.size() != kAspNetBenchmarks)
        throw std::logic_error("aspnet: benchmark count drifted");
    return out;
}

} // namespace netchar::wl
