/**
 * @file
 * Compile-only fixture for the serve.nodiscard ctest: discarding the
 * result of a serve function that reports failure through its bool
 * return must not compile under -Werror. Built once as is (the
 * compiler must say "ignoring return value") and once with
 * NETCHAR_DISCARD_ON_PURPOSE, where each discard is written as
 * static_cast<void>(...) and must compile cleanly.
 */

#include <string>

#include "serve/journal.hh"
#include "serve/protocol.hh"

namespace
{

[[maybe_unused]] void
discardResults(netchar::serve::CacheJournal &journal, int fd)
{
    std::string error;
#ifdef NETCHAR_DISCARD_ON_PURPOSE
    static_cast<void>(netchar::serve::sendAll(fd, "bytes"));
    static_cast<void>(journal.append("key", "body", error));
#else
    netchar::serve::sendAll(fd, "bytes");
    journal.append("key", "body", error);
#endif
}

} // namespace
