// Stand-alone performance viewer.
//
// Section 7: "the viewer is separated from the simulation environment, and
// can also be used to visualize the hardware measurements of Section 5.4."
// This tool reads the CSV files the simulator (or sim_driver --csv) writes
// and renders them as the same text charts / activity lanes, entirely
// independent of the simulation libraries' timed machinery.
//
// Usage: trace_viewer FILE.csv [--width N] [--height N] [--lanes]
//   --lanes renders 0..1-valued columns as activity strips instead of
//   area charts.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "eclipse/app/trace.hpp"
#include "eclipse/sim/stats.hpp"
#include "flag_number.hpp"

using namespace eclipse;

namespace {

struct Csv {
  std::vector<std::string> columns;         // excluding the cycle column
  std::vector<sim::TimeSeries> series;
};

/// Parses "cycle,name1,name2,..." CSV as written by app::toCsv. Empty
/// cells mean "no sample for this series at this cycle"; every other cell
/// is a whole-token number (sim::parseNumber), so "12x" and a negative
/// cycle are errors naming their line.
Csv parseCsv(std::istream& in) {
  Csv csv;
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("trace_viewer: empty file");
  {
    std::stringstream header(line);
    std::string cell;
    bool first = true;
    while (std::getline(header, cell, ',')) {
      if (first) {
        if (cell != "cycle") throw std::runtime_error("trace_viewer: first column must be 'cycle'");
        first = false;
        continue;
      }
      csv.columns.push_back(cell);
      csv.series.emplace_back(cell);
    }
  }
  if (csv.columns.empty()) throw std::runtime_error("trace_viewer: no data columns");

  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::stringstream row(line);
    std::string cell;
    if (!std::getline(row, cell, ',')) continue;
    const std::optional<sim::Cycle> cycle = sim::parseNumber<sim::Cycle>(cell);
    if (!cycle) {
      throw std::runtime_error("trace_viewer: bad cycle value at line " + std::to_string(line_no));
    }
    for (std::size_t col = 0; col < csv.columns.size(); ++col) {
      if (!std::getline(row, cell, ',')) break;
      if (cell.empty()) continue;
      const std::optional<double> value = sim::parseNumber<double>(cell);
      if (!value) {
        throw std::runtime_error("trace_viewer: bad value at line " + std::to_string(line_no));
      }
      csv.series[col].sample(*cycle, *value);
    }
  }
  return csv;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  app::ChartOptions opts;
  opts.width = 100;
  opts.height = 6;
  bool lanes = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--width" && i + 1 < argc) {
      opts.width = flagNumber<int>(a, argv[++i]);
    } else if (a == "--height" && i + 1 < argc) {
      opts.height = flagNumber<int>(a, argv[++i]);
    } else if (a == "--lanes") {
      lanes = true;
    } else if (!a.empty() && a[0] != '-') {
      path = a;
    } else {
      std::fprintf(stderr, "usage: trace_viewer FILE.csv [--width N] [--height N] [--lanes]\n");
      return 2;
    }
  }
  if (path.empty() || opts.width < 1 || opts.height < 1) {
    std::fprintf(stderr, "usage: trace_viewer FILE.csv [--width N] [--height N] [--lanes]\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_viewer: cannot open %s\n", path.c_str());
    return 1;
  }
  try {
    const Csv csv = parseCsv(in);
    std::vector<const sim::TimeSeries*> refs;
    refs.reserve(csv.series.size());
    for (const auto& s : csv.series) refs.push_back(&s);
    if (lanes) {
      std::printf("%s", app::renderActivityStrips(refs, opts.width).c_str());
    } else {
      std::printf("%s", app::renderStack(refs, opts).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_viewer: %s\n", e.what());
    return 1;
  }
  return 0;
}
