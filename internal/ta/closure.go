package ta

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// LocSet is a set of locations.
type LocSet map[LocID]bool

// NewLocSet builds a set from ids.
func NewLocSet(ids ...LocID) LocSet {
	s := make(LocSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// LocSetByName builds a set from location names.
func (a *TA) LocSetByName(names ...string) (LocSet, error) {
	s := make(LocSet, len(names))
	for _, n := range names {
		id, err := a.LocByName(n)
		if err != nil {
			return nil, err
		}
		s[id] = true
	}
	return s, nil
}

// Sorted returns the set's locations in ascending order.
func (s LocSet) Sorted() []LocID {
	ids := make([]LocID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// String renders the set with location names in deterministic order.
func (s LocSet) String(a *TA) string {
	names := make([]string, 0, len(s))
	for id := range s {
		names = append(names, a.Locations[id].Name)
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

// PredClosed reports whether every progress edge entering the set originates
// inside the set. For a predecessor-closed set, "the set is empty" is a
// monotonically stable predicate: once no process is inside, no process can
// ever enter. Goal atoms of liveness specifications must satisfy this.
func (a *TA) PredClosed(s LocSet) error {
	for _, r := range a.Rules {
		if r.SelfLoop() || r.RoundSwitch {
			continue
		}
		if s[r.To] && !s[r.From] {
			return fmt.Errorf("ta %s: set %s is not predecessor-closed: rule %s enters from %s",
				a.Name, s.String(a), r.Name, a.Locations[r.From].Name)
		}
	}
	return nil
}

// SuccClosed reports whether every progress edge leaving the set lands inside
// the set. For a successor-closed set, "some process is in the set" is a
// monotonically stable predicate: a process inside can never escape.
// ◇-witness atoms of specifications must satisfy this.
func (a *TA) SuccClosed(s LocSet) error {
	for _, r := range a.Rules {
		if r.SelfLoop() || r.RoundSwitch {
			continue
		}
		if s[r.From] && !s[r.To] {
			return fmt.Errorf("ta %s: set %s is not successor-closed: rule %s escapes to %s",
				a.Name, s.String(a), r.Name, a.Locations[r.To].Name)
		}
	}
	return nil
}

// NoIncoming reports whether the location has no incoming progress edges
// (so "empty initially" implies "empty forever").
func (a *TA) NoIncoming(loc LocID) bool {
	for _, r := range a.Rules {
		if r.SelfLoop() || r.RoundSwitch {
			continue
		}
		if r.To == loc {
			return false
		}
	}
	return true
}
