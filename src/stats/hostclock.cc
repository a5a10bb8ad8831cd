#include "stats/hostclock.hh"

#include <chrono>

namespace netchar
{

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace netchar
