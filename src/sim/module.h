// Named simulation component base.
//
// Mirrors (a small part of) sc_module: every model in the framework is
// a Module that knows its hierarchical name. Processes are plain
// callbacks registered with a Clock; there is no implicit elaboration
// phase.
#ifndef SCT_SIM_MODULE_H
#define SCT_SIM_MODULE_H

#include <string>
#include <utility>

namespace sct::sim {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

} // namespace sct::sim

#endif // SCT_SIM_MODULE_H
