/**
 * @file
 * A second name for the lint entry point: runLint() and LintOptions
 * are declared in lint.hh. perfbench includes this header and names
 * `DriverOptions`.
 */

#ifndef NETCHAR_LINT_DRIVER_HH
#define NETCHAR_LINT_DRIVER_HH

#include "lint/lint.hh"

namespace netchar::lint
{

using DriverOptions = LintOptions;

} // namespace netchar::lint

#endif // NETCHAR_LINT_DRIVER_HH
