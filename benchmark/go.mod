// The benchmark is a module of its own so that it carries its own build
// file; the replace directive points at the repository it measures, and
// the abnn2/ prefix of the module path is what lets it import
// abnn2/internal/... .
module abnn2/benchmark

go 1.22

require abnn2 v0.0.0

replace abnn2 => ../
