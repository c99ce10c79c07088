package abnn2

// Protocol-planner facade: the cost-model-driven per-layer backend
// planner in internal/plan, re-exported for users of the public API.
// A Plan assigns each linear layer an offline matmul backend (ABNN2
// under any η/γ decomposition, SecureML, MiniONN, or QUOTIENT); every
// backend produces the same additive triplet shares, so the plan moves
// offline cost around without changing any prediction bit. The client
// proposes its plan in the batch announcement; the server validates it
// against the model (layer count, weight ranges, backend
// applicability) and both parties execute the mixed schedule.

import "abnn2/internal/plan"

// Plan is a per-layer offline backend schedule; see Config.Plan. Build
// one with ChoosePlan (cost-model driven) or as a literal, one PlanChoice
// per layer; its String is the form the tools' -plan flag takes.
type Plan = plan.Plan

// PlanChoice is one layer's (backend, scheme) assignment.
type PlanChoice = plan.Choice

// PlanLink models the channel the planner prices communication against;
// use PlanLAN/PlanWAN or fill the fields directly.
type PlanLink = plan.Link

// PlanInput bundles everything ChoosePlan needs: architecture, ring
// width, batch size, and link. All fields are public protocol state.
type PlanInput = plan.Input

// PlanEstimate is a priced plan: predicted per-layer communication,
// flights, and seconds, comparable against measured trace spans.
type PlanEstimate = plan.Estimate

// PlanLAN is the datacenter link preset.
func PlanLAN() PlanLink { return plan.LAN() }

// PlanWAN is the wide-area link preset.
func PlanWAN() PlanLink { return plan.WAN() }

// ChoosePlan runs the planner: per layer, the cheapest applicable
// (backend, η/γ decomposition) under the link's cost model.
// Deterministic for a fixed input.
func ChoosePlan(in PlanInput) (*Plan, *PlanEstimate, error) { return plan.Choose(in) }
