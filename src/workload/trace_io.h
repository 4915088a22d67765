// Trace file format: lets converted real traces (e.g. DFSTrace) drive
// the simulator, and lets generated workloads be archived and diffed.
//
// Text format, line-oriented:
//
//   # anufs-trace v1            <- magic, required first line
//   duration <seconds>
//   fileset <id> <name> <weight>
//   ...
//   req <time> <fileset-id> <demand>
//   ...
//
// Requests must be time-sorted; file sets must be declared before use
// with dense ids starting at 0. '#' begins a comment anywhere.
#pragma once

#include <iosfwd>
#include <string>

#include "workload/spec.h"

namespace anufs::workload {

/// Serialize a workload. Round-trips exactly with read_trace up to
/// floating-point text precision (17 significant digits are written).
void write_trace(std::ostream& os, const Workload& workload);

/// Parse a workload; aborts with a `<source>:<line>:` diagnostic on
/// malformed input (common/line_reader.h). `source_name` names the input
/// in diagnostics.
[[nodiscard]] Workload read_trace(std::istream& is,
                                  const std::string& source_name = "<trace>");

/// Convenience file wrappers.
void save_trace(const std::string& path, const Workload& workload);
[[nodiscard]] Workload load_trace(const std::string& path);

}  // namespace anufs::workload
