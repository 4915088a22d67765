#include "workload/trace_io.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>

#include "common/check.h"
#include "common/line_reader.h"

namespace anufs::workload {

namespace {

constexpr const char* kPrefix = "anufs-trace";

}  // namespace

void write_trace(std::ostream& os, const Workload& workload) {
  os << "# anufs-trace v1\n";
  os << std::setprecision(17);
  os << "duration " << workload.duration << "\n";
  for (const FileSetSpec& fs : workload.file_sets) {
    os << "fileset " << fs.id.value << ' ' << fs.name << ' ' << fs.weight
       << "\n";
  }
  for (const RequestEvent& r : workload.requests) {
    os << "req " << r.time << ' ' << r.file_set.value << ' ' << r.demand
       << "\n";
  }
}

Workload read_trace(std::istream& is, const std::string& source_name) {
  Workload w;
  w.name = "trace";
  LineReader in(is, source_name, kPrefix);
  const std::optional<std::string> magic = in.raw_line();
  if (!magic.has_value() || magic->rfind("# anufs-trace v1", 0) != 0) {
    in.fail("missing '# anufs-trace v1' magic");
  }

  bool saw_duration = false;
  while (in.next()) {
    const std::string kind = in.word("record kind");
    if (kind == "duration") {
      w.duration = in.take<double>("duration");
      if (w.duration <= 0.0) in.fail("bad duration (must be > 0)");
      saw_duration = true;
    } else if (kind == "fileset") {
      const auto id = in.take<std::uint32_t>("fileset id");
      std::string name = in.word("fileset name");
      const auto weight = in.take<double>("fileset weight");
      if (id != w.file_sets.size()) {
        in.fail("fileset ids must be dense from 0");
      }
      w.file_sets.push_back(FileSetSpec::make(id, std::move(name), weight));
    } else if (kind == "req") {
      const auto time = in.take<double>("req time");
      const auto fs = in.take<std::uint32_t>("req fileset id");
      const auto demand = in.take<double>("req demand");
      if (fs >= w.file_sets.size()) {
        in.fail("req references undeclared fileset");
      }
      if (!w.requests.empty() && time < w.requests.back().time) {
        in.fail("requests out of time order");
      }
      w.requests.push_back(RequestEvent{time, FileSetId{fs}, demand});
    } else {
      in.fail("unknown record kind '" + kind + "'");
    }
    in.expect_end();
  }
  if (!saw_duration) in.fail("missing duration record");
  w.validate();
  return w;
}

void save_trace(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  ANUFS_EXPECTS(out.good());
  write_trace(out, workload);
  ANUFS_ENSURES(out.good());
}

Workload load_trace(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) LineReader(file, path, kPrefix).fail("cannot open");
  return read_trace(file, path);
}

}  // namespace anufs::workload
