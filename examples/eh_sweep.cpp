// Intermittent-power exploration CLI: run the backup-scheme × field
// profile grid over the fork-based sweep and print the forward
// progress / recharge economics of every cell as a table — which
// backup policy finishes the transaction fastest under which field,
// and what the checkpointing overhead costs in wall time and fJ.
//
//   eh_sweep [blocks] [threads]
//     blocks   crypto blocks in the workload (default 16)
//     threads  sweep workers (default 0 = hardware pool, 1 = serial)
//
// Add --stats to dump the merged obs counters as JSON after the table.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eh/sweep.h"
#include "obs/stats.h"
#include "trace/report.h"

namespace {

using sct::trace::Table;

std::string kcyc(std::uint64_t cycles) {
  return Table::num(static_cast<double>(cycles) / 1000.0, 1);
}

} // namespace

int main(int argc, char** argv) {
  unsigned blocks = 16;
  unsigned threads = 0;
  bool wantStats = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats") {
      wantStats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: eh_sweep [blocks] [threads] [--stats]\n";
      return 0;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 0) blocks = std::strtoul(positional[0].c_str(), nullptr, 10);
  if (positional.size() > 1) threads = std::strtoul(positional[1].c_str(), nullptr, 10);
  if (blocks == 0) blocks = 1;

  const sct::power::SignalEnergyTable& table = sct::bench::characterizedTable();

  std::cout << "Intermittent-power sweep: " << blocks
            << "-block crypto transaction, scheme x field grid\n"
            << "(boot prelude paid once, forked per variant; threads="
            << threads << ")\n\n";

  const sct::eh::SweepRunner sweep(table, blocks);
  const std::vector<sct::eh::SweepVariant> grid = sct::eh::defaultGrid();
  const std::vector<sct::eh::SweepOutcome> outcomes =
      sweep.run(grid, threads);

  std::cout << "Boot snapshot: " << sweep.snapshot().serialize().size()
            << " bytes shared by " << grid.size() << " variants\n\n";

  Table out({"scheme", "field", "done", "wall kcyc", "duty", "brownout",
             "backup", "restore", "death", "replay kcyc", "dead kcyc",
             "backup fJ", "harvest fJ"});
  sct::obs::StatsRegistry stats;
  for (const sct::eh::SweepOutcome& o : outcomes) {
    const sct::eh::RunResult& r = o.result;
    out.addRow({o.variant.scheme, o.variant.profile,
                r.completed ? "yes" : "NO", kcyc(r.wallCycles),
                Table::pct(r.dutyCycle()), std::to_string(r.brownouts),
                std::to_string(r.backups), std::to_string(r.restores),
                std::to_string(r.hardDeaths), kcyc(r.replayedCycles),
                kcyc(r.deadCycles), Table::num(r.backupEnergy_fJ / 1e6, 2),
                Table::num(r.harvested_fJ / 1e6, 2)});
    sct::eh::publishRunObs(r, stats);
  }
  out.print(std::cout);
  std::cout << "\n(wall/replay/dead in kilocycles; energies in nJ-equivalent "
               "1e6 fJ; duty = powered forward progress / wall)\n";

  // Per-segment attribution for the first browned-out cell: where the
  // energy went between two power losses (the obs::LedgerView delta).
  for (const sct::eh::SweepOutcome& o : outcomes) {
    if (o.result.brownouts == 0 || o.result.segments.size() < 2) continue;
    std::cout << "\nSegments of " << o.variant.scheme << "/"
              << o.variant.profile << " (first "
              << std::min<std::size_t>(o.result.segments.size(), 6)
              << " of " << o.result.segments.size() << "):\n";
    Table seg({"segment", "wall kcyc", "sim kcyc", "bus fJ"});
    std::size_t shown = 0;
    for (const sct::eh::Segment& s : o.result.segments) {
      if (++shown > 6) break;
      seg.addRow({std::to_string(shown),
                  kcyc(s.wallEnd - s.wallStart),
                  kcyc(s.simEnd - s.simStart),
                  Table::num(s.energy.total, 1)});
    }
    seg.print(std::cout);
    break;
  }

  if (wantStats) {
    std::cout << "\n";
    stats.writeJson(std::cout);
    std::cout << "\n";
  }

  bool allProgressed = true;
  for (const sct::eh::SweepOutcome& o : outcomes) {
    allProgressed = allProgressed &&
                    (o.result.completed || o.result.progressWord > 0);
  }
  return allProgressed ? 0 : 1;
}
