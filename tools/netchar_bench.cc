/**
 * @file
 * The bench driver: every bench_* source under bench/ is compiled
 * into this binary and self-registers into the harness registry.
 * The CLI lists, filters, runs and reports the suite, and --ci-check
 * runs the gated benches and checks each gate's absolute threshold —
 * see docs/BENCHMARKS.md for the gate table and docs/CLI.md for the
 * flag reference.
 */

#include "harness.hh"

int
main(int argc, char **argv)
{
    return netchar::bench::driverMain(argc, argv);
}
