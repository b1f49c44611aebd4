// Stand-alone simulator driver — the Section 7 workflow as a tool:
// "the simulator parses a setup file that contains these architectural
// parameters and collects measurement data such as the filling of
// communication buffers and the execution time of a coprocessor."
//
// Usage:
//   sim_driver [--setup FILE] [--width N] [--height N] [--frames N]
//              [--qscale N] [--gop-n N] [--gop-m N] [--seed N]
//              [--streams N] [--csv PREFIX] [--charts]
//
// Runs N simultaneous decode applications of a synthetic sequence on one
// Eclipse instance configured from the setup file, prints the measurement
// summary, and optionally writes the buffer-fill series as CSV files.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "eclipse/eclipse.hpp"

using namespace eclipse;

namespace {

struct Options {
  std::string setup_file;
  int width = 176, height = 144, frames = 9, qscale = 14;
  int gop_n = 9, gop_m = 3;
  std::uint64_t seed = 3;
  int streams = 1;
  std::string csv_prefix;
  bool charts = false;
};

bool parseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--setup") o.setup_file = next("--setup");
    else if (a == "--width") o.width = std::atoi(next("--width"));
    else if (a == "--height") o.height = std::atoi(next("--height"));
    else if (a == "--frames") o.frames = std::atoi(next("--frames"));
    else if (a == "--qscale") o.qscale = std::atoi(next("--qscale"));
    else if (a == "--gop-n") o.gop_n = std::atoi(next("--gop-n"));
    else if (a == "--gop-m") o.gop_m = std::atoi(next("--gop-m"));
    else if (a == "--seed") o.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    else if (a == "--streams") o.streams = std::atoi(next("--streams"));
    else if (a == "--csv") o.csv_prefix = next("--csv");
    else if (a == "--charts") o.charts = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parseArgs(argc, argv, o)) return 2;

  // Workload.
  media::VideoGenParams vp;
  vp.width = o.width;
  vp.height = o.height;
  vp.frames = o.frames;
  vp.seed = o.seed;
  vp.detail = 8;
  vp.motion_speed = 4;
  vp.noise_level = 0;
  const auto frames = media::generateVideo(vp);
  media::CodecParams cp;
  cp.width = o.width;
  cp.height = o.height;
  cp.qscale = o.qscale;
  cp.gop = media::GopStructure{o.gop_n, o.gop_m};
  media::Encoder enc(cp);
  const auto bits = enc.encode(frames);

  // Instance from the setup file.
  app::InstanceParams ip;
  if (!o.setup_file.empty()) {
    ip = app::InstanceParams::fromConfig(sim::Config::fromFile(o.setup_file));
  }
  // Only the fill charts and CSV series read the profiler; a plain run
  // leaves it off unless the setup file sets shell.profiler_period.
  const bool exports = o.charts || !o.csv_prefix.empty();
  if (ip.profiler_period == 0 && exports) ip.profiler_period = 250;
  if (o.streams > 1 && ip.sram.size_bytes < static_cast<std::size_t>(o.streams) * 16 * 1024) {
    ip.sram.size_bytes = static_cast<std::size_t>(o.streams) * 16 * 1024;
  }
  app::EclipseInstance inst(ip);

  std::vector<std::unique_ptr<app::DecodeApp>> apps;
  for (int s = 0; s < o.streams; ++s) {
    apps.push_back(std::make_unique<app::DecodeApp>(inst, bits));
  }
  const sim::Cycle cycles = inst.run();

  std::uint64_t mbs = 0;
  bool all_exact = true;
  for (auto& a : apps) {
    if (!a->done()) {
      std::fprintf(stderr, "error: a decode did not complete\n");
      return 1;
    }
    mbs += a->macroblocksDecoded();
    const auto out = a->frames();
    for (std::size_t i = 0; i < out.size(); ++i) {
      all_exact = all_exact && out[i] == enc.reconstructed()[i];
    }
  }

  std::printf("eclipse sim: %dx%d, %d frame(s), GOP %s, qscale %d, %d stream(s)\n", o.width,
              o.height, o.frames, cp.gop.pattern().c_str(), o.qscale, o.streams);
  std::printf("  %llu cycles, %llu MBs, %.1f cycles/MB, bit-exact: %s\n",
              static_cast<unsigned long long>(cycles), static_cast<unsigned long long>(mbs),
              static_cast<double>(cycles) / static_cast<double>(mbs), all_exact ? "yes" : "NO");
  std::printf("  buses: sram-rd %.1f%%, sram-wr %.1f%%, system %.1f%%; %llu sync msgs\n",
              100 * inst.sram().readBus().utilization(cycles),
              100 * inst.sram().writeBus().utilization(cycles),
              100 * inst.dram().bus().utilization(cycles),
              static_cast<unsigned long long>(inst.network().messagesSent()));
  for (auto& sh : inst.shells()) {
    std::printf("  %-14s util %5.1f%%  switches %llu\n", sh->name().c_str(),
                100 * sh->utilization(cycles),
                static_cast<unsigned long long>(sh->taskSwitches()));
  }

  // Measurement exports.
  auto series = [&](const app::AppStream& h, const std::string& name) {
    sim::TimeSeries s(name);
    const auto& src = h.consumer_shell->streams().row(h.consumer_row).fill_series;
    for (auto& [c, v] : src.points()) s.sample(c, v);
    return s;
  };
  const auto rlsq = series(apps[0]->coefStream(), "rlsq_in_fill");
  const auto dct = series(apps[0]->blocksStream(), "dct_in_fill");
  const auto mc = series(apps[0]->resStream(), "mc_in_fill");

  if (o.charts) {
    app::ChartOptions copts;
    copts.width = 100;
    copts.height = 6;
    std::printf("\n%s", app::renderStack({&rlsq, &dct, &mc}, copts).c_str());
  }
  if (!o.csv_prefix.empty()) {
    const std::string path = o.csv_prefix + "_buffer_fill.csv";
    std::ofstream out(path);
    out << app::toCsv({&rlsq, &dct, &mc});
    std::printf("  wrote %s\n", path.c_str());
  }
  return all_exact ? 0 : 1;
}
