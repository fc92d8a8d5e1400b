#include "power/coeff_table.h"

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sct::power {

void SignalEnergyTable::save(std::ostream& os) const {
  os << "# EC interface energy coefficients (fJ per bit transition)\n";
  // max_digits10 keeps the round trip through text lossless.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& info : bus::kSignalTable) {
    os << info.name << ' ' << coeff_fJ(info.id) << '\n';
  }
}

SignalEnergyTable SignalEnergyTable::load(std::istream& is) {
  SignalEnergyTable table;
  std::array<bool, bus::kSignalCount> seen{};
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    double value = 0.0;
    if (!(ls >> name >> value) || !(ls >> std::ws).eof()) {
      throw std::runtime_error("SignalEnergyTable: malformed line: " + line);
    }
    // Written to reject NaN too: every comparison with NaN is false.
    if (!(value >= 0.0 && value <= kMaxCoeff_fJ)) {
      throw std::runtime_error("SignalEnergyTable: coefficient out of range: " +
                               line);
    }
    bool found = false;
    for (const auto& info : bus::kSignalTable) {
      if (info.name == name) {
        bool& dup = seen[static_cast<std::size_t>(info.id)];
        if (dup) {
          throw std::runtime_error("SignalEnergyTable: repeated signal: " +
                                   name);
        }
        dup = true;
        table.setCoeff_fJ(info.id, value);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::runtime_error("SignalEnergyTable: unknown signal: " + name);
    }
  }
  return table;
}

} // namespace sct::power
