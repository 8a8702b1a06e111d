#include "fpga/resources.hpp"

namespace latte {

FpgaSpec AlveoU280Slr0() { return FpgaSpec{}; }

}  // namespace latte
