/**
 * @file
 * The one host-clock read of the repo.
 *
 * Results come from simulated cycles (trace/clock.hh), so host time
 * may feed run ledgers, --stats timings, serve timers and bench
 * metrics, but never result bytes. netchar-lint's no-wallclock rule
 * bans host clocks in all of src/ except the file that defines this
 * function, and its taint pass treats this function's return as
 * host time, so a value of it that reaches a serialization sink is a
 * flow-wallclock finding.
 */

#ifndef NETCHAR_STATS_HOSTCLOCK_HH
#define NETCHAR_STATS_HOSTCLOCK_HH

namespace netchar
{

/** Monotonic host time in seconds, from an arbitrary epoch. */
double hostSeconds();

} // namespace netchar

#endif // NETCHAR_STATS_HOSTCLOCK_HH
