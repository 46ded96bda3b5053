#include "common/flags.h"

#include <algorithm>

namespace mlpm::flags {

std::string Parse(const std::vector<Flag>& table,
                  const std::vector<std::string>& args,
                  const Apply& operand) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (operand && (arg.empty() || arg[0] != '-')) {
      operand(arg);
      continue;
    }
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Flag& f) { return f.name == arg; });
    if (row == table.end()) return "unknown flag '" + arg + "'";
    std::string value;
    if (!row->metavar.empty()) {
      if (i + 1 < args.size()) value = args[++i];
      if (value.empty()) return row->name + ": missing value";
    }
    try {
      row->apply(value);
    } catch (const CheckError& e) {
      return row->name + ": " + e.what();
    }
  }
  return {};
}

std::string Usage(const std::string& program, const std::vector<Flag>& table,
                  const std::string& operands) {
  const auto spelling = [](const Flag& f) {
    return f.metavar.empty() ? f.name : f.name + " " + f.metavar;
  };
  std::size_t width = 0;
  for (const Flag& f : table) width = std::max(width, spelling(f).size());
  std::string out = "usage: " + program + " [FLAG]...";
  if (!operands.empty()) out += " " + operands;
  out += '\n';
  for (const Flag& f : table) {
    const std::string s = spelling(f);
    out += "  " + s + std::string(width - s.size() + 2, ' ') + f.help + '\n';
  }
  return out;
}

}  // namespace mlpm::flags
