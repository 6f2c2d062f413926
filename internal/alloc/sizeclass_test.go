package alloc

import (
	"testing"
	"testing/quick"

	"dmexplore/internal/memhier"
)

func TestPow2Classes(t *testing.T) {
	p, err := NewPow2Classes(16, 256)
	if err != nil {
		t.Fatal(err)
	}
	// 16, 32, 64, 128, 256 -> 5 classes.
	if p.NumClasses() != 5 {
		t.Fatalf("classes %d", p.NumClasses())
	}
	cases := []struct {
		size int64
		want int
	}{{1, 0}, {16, 0}, {17, 1}, {32, 1}, {33, 2}, {256, 4}, {257, -1}}
	for _, c := range cases {
		if got := p.ClassOf(c.size); got != c.want {
			t.Errorf("ClassOf(%d) = %d want %d", c.size, got, c.want)
		}
	}
	for c := 0; c < p.NumClasses(); c++ {
		if got, want := p.ClassSize(c), int64(16)<<uint(c); got != want {
			t.Errorf("ClassSize(%d) = %d want %d", c, got, want)
		}
	}
}

func TestPow2ClassesErrors(t *testing.T) {
	if _, err := NewPow2Classes(0, 64); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewPow2Classes(64, 16); err == nil {
		t.Error("max < min accepted")
	}
	if _, err := NewPow2Classes(24, 64); err == nil {
		t.Error("non-pow2 min accepted")
	}
	if _, err := NewPow2Classes(16, 96); err == nil {
		t.Error("non-pow2 max accepted")
	}
}

func TestPow2SingleClassRange(t *testing.T) {
	p, err := NewPow2Classes(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClasses() != 1 || p.ClassOf(64) != 0 || p.ClassOf(65) != -1 {
		t.Fatal("degenerate pow2 range wrong")
	}
}

func TestLinearClasses(t *testing.T) {
	l, err := NewLinearClasses(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumClasses() != 8 {
		t.Fatalf("classes %d", l.NumClasses())
	}
	cases := []struct {
		size int64
		want int
	}{{1, 0}, {8, 0}, {9, 1}, {16, 1}, {63, 7}, {64, 7}, {65, -1}}
	for _, c := range cases {
		if got := l.ClassOf(c.size); got != c.want {
			t.Errorf("ClassOf(%d) = %d want %d", c.size, got, c.want)
		}
	}
	if l.ClassSize(0) != 8 || l.ClassSize(7) != 64 {
		t.Fatal("class sizes wrong")
	}
}

func TestLinearClassesErrors(t *testing.T) {
	if _, err := NewLinearClasses(0, 64); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := NewLinearClasses(7, 63); err == nil {
		t.Error("unaligned step accepted")
	}
	if _, err := NewLinearClasses(8, 60); err == nil {
		t.Error("non-multiple max accepted")
	}
	if _, err := NewLinearClasses(16, 8); err == nil {
		t.Error("max < step accepted")
	}
}

func TestSingleClass(t *testing.T) {
	s := SingleClass{}
	if s.NumClasses() != 1 || s.ClassOf(1) != 0 || s.ClassOf(1<<40) != 0 || s.ClassSize(0) != 0 {
		t.Fatal("single class wrong")
	}
}

// Property: ClassSize(ClassOf(s)) >= s for all in-range sizes, and class
// indices are monotone in size.
func TestClassMapProperties(t *testing.T) {
	p, _ := NewPow2Classes(16, 4096)
	l, _ := NewLinearClasses(8, 4096)
	for _, m := range []SizeClasser{p, l} {
		if err := quick.Check(func(raw uint16) bool {
			size := int64(raw%4096) + 1
			c := m.ClassOf(size)
			if c < 0 || c >= m.NumClasses() {
				return false
			}
			if m.ClassSize(c) < size {
				return false
			}
			// The previous class (if any) must be too small.
			if c > 0 && m.ClassSize(c-1) >= size {
				return false
			}
			return true
		}, nil); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

func TestParseClasses(t *testing.T) {
	p, err := parseClassSpec("single")
	if err != nil || p.classes.NumClasses() != 1 {
		t.Fatalf("single: %+v %v", p, err)
	}
	p, err = parseClassSpec("pow2:16:1024")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.classes.(*Pow2Classes); !ok {
		t.Fatalf("pow2 spec built %T", p.classes)
	}
	p, err = parseClassSpec("linear:8:512")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.classes.(*LinearClasses); !ok {
		t.Fatalf("linear spec built %T", p.classes)
	}
	p, err = parseClassSpec("buddy:64:65536")
	if err != nil || p.classes != nil || p.buddyMin != 64 || p.buddyMax != 65536 {
		t.Fatalf("buddy spec parsed as %+v, %v", p, err)
	}
	for _, bad := range []string{"", "pow2", "pow2:x:y", "linear:8", "huh:1:2"} {
		if _, err := parseClassSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestValidateClassSpecs runs class specs, as a -spacefile JSON may
// carry them, through Config.Validate: every kind with two decimal
// bounds is accepted, and any spec with input past its bounds, a
// missing bound or an unknown kind is rejected.
func TestValidateClassSpecs(t *testing.T) {
	h := memhier.EmbeddedSoC()
	for _, c := range []struct {
		spec string
		ok   bool
	}{
		{"single", true},
		{"pow2:16:65536", true},
		{"linear:64:2048", true},
		{"buddy:64:65536", true},
		{"pow2:16:65536xyz", false},
		{"linear:64:2048 junk", false},
		{"buddy:64:65536zz", false},
		{"pow2:16:65536:8", false},
		{"buddy:64:65536:", false},
		{"single:", false},
		{"pow2:16", false},
		{"buddy:64", false},
		{"linear::2048", false},
		{"buddy:0x40:65536", false},
		{"fib:1:2", false},
	} {
		cfg := KingsleyConfig(memhier.LayerDRAM)
		cfg.General.Classes = c.spec
		if err := cfg.Validate(h); (err == nil) != c.ok {
			t.Errorf("spec %q: Validate returned %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}
