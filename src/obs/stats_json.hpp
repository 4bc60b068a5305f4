#pragma once
// Stats-struct JSON serialization: the encoding of the stats structs in
// `unigen --stats-json` documents.
//
// Each `to_json` overload walks a single `visit_fields` list per struct
// (stats_json.cpp), the one place that names a struct's fields.  Stats
// structs hold only numbers and bools under fixed identifier names, so the
// writer emits compact JSON text directly, with no value tree and no
// string escaping: integers exactly (%lld/%llu), doubles with %.17g, bools
// as true/false, and the nested structs (UniGenStats::simplify,
// SamplerPoolStats::prepare/workers) as nested objects/arrays.

#include <string>

#include "core/unigen.hpp"
#include "service/sampler_pool.hpp"
#include "service/session_registry.hpp"

namespace unigen::obs {

std::string to_json(const SimplifyStats& s);
std::string to_json(const UniGenStats& s);
std::string to_json(const SamplerPoolWorkerStats& s);
std::string to_json(const SamplerPoolStats& s);
std::string to_json(const SessionRegistryStats& s);

}  // namespace unigen::obs
