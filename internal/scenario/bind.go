package scenario

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"probqos/internal/units"
)

// Decode parses and validates one scenario file written in the YAML
// subset; name labels positions only. Errors carry file:line:col
// positions; when several fields are bad, all of them are reported
// (joined), so one validate pass shows the whole damage.
func Decode(name string, data []byte) (*Scenario, error) {
	root, err := parseYAML(name, data)
	if err != nil {
		return nil, err
	}
	b := &binder{}
	s := b.scenario(root)
	if err := errors.Join(b.errs...); err != nil {
		return nil, err
	}
	// Semantic cross-field rules (event ordering, ranges against fleet
	// size). The binder caught every shape/type problem with positions;
	// these remaining rules are scenario-level, so the file name is the
	// position.
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// maxBindErrors caps the error list so a pathological document cannot
// produce an unbounded report.
const maxBindErrors = 20

type binder struct {
	errs []error
}

func (b *binder) errf(pos Pos, format string, args ...any) {
	if len(b.errs) >= maxBindErrors {
		return
	}
	b.errs = append(b.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// fields wraps a map node, tracking which keys the binder consumed so
// leftovers become "unknown key" errors pointing at the stray entry.
type fields struct {
	b    *binder
	n    *node
	used map[string]bool
}

func (b *binder) fields(n *node) *fields {
	return &fields{b: b, n: n, used: make(map[string]bool)}
}

// get returns the child for key, or nil if absent.
func (f *fields) get(key string) *node {
	f.used[key] = true
	return f.n.children[key]
}

// require returns the child for key, recording an error if absent.
func (f *fields) require(key string) *node {
	c := f.get(key)
	if c == nil {
		f.b.errf(f.n.pos, "missing required key %q", key)
	}
	return c
}

// finish flags any keys the caller never consumed.
func (f *fields) finish() {
	for _, key := range f.n.keys {
		if !f.used[key] {
			f.b.errf(f.n.children[key].pos, "unknown key %q", key)
		}
	}
}

// asMap checks that n is a mapping and returns its fields (nil on mismatch
// or absence, after recording the error for mismatches).
func (b *binder) asMap(n *node, what string) *fields {
	if n == nil {
		return nil
	}
	if n.kind != mapNode {
		b.errf(n.pos, "%s must be a mapping, got a %s", what, n.kind)
		return nil
	}
	return b.fields(n)
}

func (b *binder) scalar(n *node, what string) (string, bool) {
	if n == nil {
		return "", false
	}
	if n.kind != scalarNode {
		b.errf(n.pos, "%s must be a scalar, got a %s", what, n.kind)
		return "", false
	}
	return n.scalar, true
}

func (b *binder) str(n *node, what string) string {
	s, ok := b.scalar(n, what)
	if !ok {
		return ""
	}
	return s
}

func (b *binder) integer(n *node, what string) int64 {
	s, ok := b.scalar(n, what)
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		b.errf(n.pos, "%s must be an integer, got %q", what, s)
		return 0
	}
	return v
}

func (b *binder) float(n *node, what string) float64 {
	s, ok := b.scalar(n, what)
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		b.errf(n.pos, "%s must be a finite number, got %q", what, s)
		return 0
	}
	return v
}

func (b *binder) boolean(n *node, what string) bool {
	s, ok := b.scalar(n, what)
	if !ok {
		return false
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	b.errf(n.pos, "%s must be true or false, got %q", what, s)
	return false
}

func (b *binder) duration(n *node, what string) units.Duration {
	return units.Duration(b.integer(n, what+" (seconds)"))
}

func (b *binder) intList(n *node, what string) []int {
	if n == nil {
		return nil
	}
	if n.kind != listNode {
		b.errf(n.pos, "%s must be a list, got a %s", what, n.kind)
		return nil
	}
	out := make([]int, 0, len(n.items))
	for _, item := range n.items {
		out = append(out, int(b.integer(item, what+" element")))
	}
	return out
}

func (b *binder) scenario(root *node) *Scenario {
	s := &Scenario{}
	f := b.fields(root)
	s.Name = b.str(f.require("name"), "name")
	if d := f.get("description"); d != nil {
		s.Description = b.str(d, "description")
	}
	s.Seed = b.integer(f.require("seed"), "seed")
	if fl := b.asMap(f.require("fleet"), "fleet"); fl != nil {
		s.Fleet = b.fleet(fl)
	}
	if ev := f.get("events"); ev != nil {
		if ev.kind != listNode {
			b.errf(ev.pos, "events must be a list, got a %s", ev.kind)
		} else {
			for _, item := range ev.items {
				if ef := b.asMap(item, "event"); ef != nil {
					s.Events = append(s.Events, b.event(ef))
				}
			}
		}
	}
	if as := f.get("assertions"); as != nil {
		if as.kind != listNode {
			b.errf(as.pos, "assertions must be a list, got a %s", as.kind)
		} else {
			for _, item := range as.items {
				if af := b.asMap(item, "assertion"); af != nil {
					s.Asserts = append(s.Asserts, b.assertion(af))
				}
			}
		}
	}
	f.finish()
	return s
}

func (b *binder) fleet(f *fields) Fleet {
	var fl Fleet
	fl.Nodes = int(b.integer(f.require("nodes"), "fleet.nodes"))
	if n := f.get("rack_size"); n != nil {
		fl.RackSize = int(b.integer(n, "fleet.rack_size"))
	}
	fl.Accuracy = b.float(f.require("accuracy"), "fleet.accuracy")
	fl.UserRisk = b.float(f.require("user_risk"), "fleet.user_risk")
	if cp := b.asMap(f.require("checkpoint"), "fleet.checkpoint"); cp != nil {
		fl.Checkpoint.Interval = b.duration(cp.require("interval_s"), "checkpoint.interval_s")
		fl.Checkpoint.Overhead = b.duration(cp.require("overhead_s"), "checkpoint.overhead_s")
		cp.finish()
	}
	fl.Downtime = b.duration(f.require("downtime_s"), "fleet.downtime_s")
	fl.Policy = b.str(f.require("policy"), "fleet.policy")
	// The scheduling switches default on, matching sim.DefaultConfig.
	fl.FaultAware, fl.DeadlineSkip, fl.BaseRateFloor = true, true, true
	if n := f.get("fault_aware"); n != nil {
		fl.FaultAware = b.boolean(n, "fleet.fault_aware")
	}
	if n := f.get("deadline_skip"); n != nil {
		fl.DeadlineSkip = b.boolean(n, "fleet.deadline_skip")
	}
	if n := f.get("base_rate_floor"); n != nil {
		fl.BaseRateFloor = b.boolean(n, "fleet.base_rate_floor")
	}
	if fm := b.asMap(f.get("failures"), "fleet.failures"); fm != nil {
		if n := fm.get("mtbf_s"); n != nil {
			fl.Failures.MTBF = b.duration(n, "failures.mtbf_s")
		}
		fl.Failures.Shape = 1
		if n := fm.get("shape"); n != nil {
			fl.Failures.Shape = b.float(n, "failures.shape")
		}
		if n := fm.get("horizon_s"); n != nil {
			fl.Failures.Horizon = b.duration(n, "failures.horizon_s")
		}
		fm.finish()
	}
	f.finish()
	return fl
}

func (b *binder) event(f *fields) Event {
	var ev Event
	ev.At = units.Time(b.integer(f.require("at_s"), "event.at_s"))
	ev.Action = b.str(f.require("action"), "event.action")
	switch ev.Action {
	case ActionArrivalBurst:
		if bf := b.asMap(f.require("burst"), "burst"); bf != nil {
			ev.Burst = b.burst(bf)
		}
	case ActionInjectFail:
		if inf := b.asMap(f.require("inject"), "inject"); inf != nil {
			ev.Inject = &Inject{Nodes: b.intList(inf.require("nodes"), "inject.nodes")}
			if n := inf.get("stagger_s"); n != nil {
				ev.Inject.Stagger = b.duration(n, "inject.stagger_s")
			}
			inf.finish()
		}
	case ActionMaintenance:
		if mf := b.asMap(f.require("maintenance"), "maintenance"); mf != nil {
			ev.Maintenance = &Maintenance{
				Nodes:    b.intList(mf.require("nodes"), "maintenance.nodes"),
				Duration: b.duration(mf.require("duration_s"), "maintenance.duration_s"),
			}
			mf.finish()
		}
	case ActionMTBFShift:
		if sf := b.asMap(f.require("shift"), "shift"); sf != nil {
			ev.Shift = &Shift{Factor: b.float(sf.require("factor"), "shift.factor")}
			sf.finish()
		}
	case ActionDrain:
		// No payload.
	default:
		if ev.Action != "" {
			b.errf(f.n.pos, "unknown action %q (one of %s, %s, %s, %s, %s)",
				ev.Action, ActionArrivalBurst, ActionInjectFail, ActionMaintenance, ActionMTBFShift, ActionDrain)
		}
	}
	f.finish()
	return ev
}

func (b *binder) burst(f *fields) *Burst {
	bu := &Burst{UserRisk: -1}
	bu.Jobs = int(b.integer(f.require("jobs"), "burst.jobs"))
	bu.MinNodes = int(b.integer(f.require("min_nodes"), "burst.min_nodes"))
	bu.MaxNodes = int(b.integer(f.require("max_nodes"), "burst.max_nodes"))
	bu.MinExec = b.duration(f.require("min_exec_s"), "burst.min_exec_s")
	bu.MaxExec = b.duration(f.require("max_exec_s"), "burst.max_exec_s")
	if n := f.get("spread_s"); n != nil {
		bu.Spread = b.duration(n, "burst.spread_s")
	}
	if n := f.get("user_risk"); n != nil {
		bu.UserRisk = b.float(n, "burst.user_risk")
	}
	f.finish()
	return bu
}

func (b *binder) assertion(f *fields) Assertion {
	var a Assertion
	a.Type = b.str(f.require("type"), "assertion.type")
	if n := f.get("min"); n != nil {
		a.Min = b.float(n, "assertion.min")
	}
	if n := f.get("max"); n != nil {
		a.Max = b.float(n, "assertion.max")
	}
	if n := f.get("slack"); n != nil {
		a.Slack = b.float(n, "assertion.slack")
	}
	f.finish()
	return a
}
