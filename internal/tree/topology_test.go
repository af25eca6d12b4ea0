package tree

import (
	"reflect"
	"testing"
)

func TestTopologyShapes(t *testing.T) {
	c := Chain(4)
	if err := c.Validate(); err != nil {
		t.Fatalf("Chain(4) invalid: %v", err)
	}
	if !reflect.DeepEqual(c.Parent, []int{-1, 0, 1, 2}) {
		t.Fatalf("Chain(4) parents = %v", c.Parent)
	}
	if got := c.Leaves(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Chain(4) leaves = %v", got)
	}
	if d := c.Depth(3); d != 3 {
		t.Fatalf("Chain(4) depth(3) = %d", d)
	}
	if p := c.Path(3); !reflect.DeepEqual(p, []int{3, 2, 1, 0}) {
		t.Fatalf("Chain(4) path(3) = %v", p)
	}

	b := Binary(7)
	if err := b.Validate(); err != nil {
		t.Fatalf("Binary(7) invalid: %v", err)
	}
	if !reflect.DeepEqual(b.Parent, []int{-1, 0, 0, 1, 1, 2, 2}) {
		t.Fatalf("Binary(7) parents = %v", b.Parent)
	}
	if got := b.Leaves(); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Fatalf("Binary(7) leaves = %v", got)
	}
}

func TestTopologyValidateRejects(t *testing.T) {
	bad := []Topology{
		{},                          // empty
		{Parent: []int{0}},          // root must be -1
		{Parent: []int{-1, 1}},      // self-parent
		{Parent: []int{-1, 2, 1}},   // forward reference
		{Parent: []int{-1, -1}},     // two roots
		{Parent: []int{-1, 0, 99}},  // out of range
		{Parent: []int{-1, 0, -42}}, // negative non-root
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("case %d (%v): Validate accepted an invalid topology", i, topo.Parent)
		}
	}
}

func TestCommonAncestor(t *testing.T) {
	b := Binary(7)
	cases := []struct{ a, b, want int }{
		{3, 4, 1}, // siblings under 1
		{3, 5, 0}, // across the root
		{3, 3, 3}, // self
		{1, 3, 1}, // ancestor/descendant
		{0, 6, 0}, // root with anything
	}
	for _, c := range cases {
		if got := b.CommonAncestor(c.a, c.b); got != c.want {
			t.Errorf("CommonAncestor(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
