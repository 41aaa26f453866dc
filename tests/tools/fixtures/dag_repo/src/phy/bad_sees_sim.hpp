// Fixture: phy must not include sim or obs — both edges must fire layer-dag.
#pragma once

#include "sim/channel.hpp"   // fires: phy -> sim is not in the DAG
#include "obs/metrics.hpp"   // fires: phy -> obs is not in the DAG
#include "util/rng.hpp"      // ok: phy -> util
