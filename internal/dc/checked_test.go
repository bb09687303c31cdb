package dc

import (
	"math"
	"strings"
	"testing"
	"time"
)

// mustPanic runs fn and returns the panic message, failing if fn returns.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic, got none")
		}
		msg = r.(string)
	}()
	fn()
	return ""
}

func TestCheckedModeDefaultsAndToggle(t *testing.T) {
	d := twoServerDC()
	if d.Checked() != defaultChecked {
		t.Fatalf("Checked() = %v after New, want defaultChecked (%v)", d.Checked(), defaultChecked)
	}
	d.SetChecked(true)
	if !d.Checked() {
		t.Fatal("Checked() = false after SetChecked(true)")
	}
	d.SetChecked(false)
	if d.Checked() {
		t.Fatal("Checked() = true after SetChecked(false)")
	}
}

// TestCheckedModePassesCleanRun drives a normal mutation sequence with
// checking on: no false positives.
func TestCheckedModePassesCleanRun(t *testing.T) {
	d := twoServerDC()
	d.SetChecked(true)
	s0, s1 := d.Servers[0], d.Servers[1]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(s1, 0); err != nil {
		t.Fatal(err)
	}
	vm := constVM(7, 1000)
	if err := d.Place(vm, s0); err != nil {
		t.Fatal(err)
	}
	if err := d.Migrate(vm.ID, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Remove(vm.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Hibernate(s0); err != nil {
		t.Fatal(err)
	}
}

// TestCheckedModePanicsOnCorruption corrupts the unexported index between
// mutations and asserts the next mutation's verification panics with the
// mutation named in the message.
func TestCheckedModePanicsOnCorruption(t *testing.T) {
	d := twoServerDC()
	d.SetChecked(true)
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 500), s0); err != nil {
		t.Fatal(err)
	}

	// Corrupt: drop the index entry while the server still hosts the VM.
	delete(d.byVM, 1)

	msg := mustPanic(t, func() {
		_ = d.Place(constVM(2, 500), s0)
	})
	if !strings.Contains(msg, "invariant violated after place") {
		t.Errorf("panic message %q does not name the mutation", msg)
	}
}

// TestCheckedModeOffToleratesCorruption pins the contract that the unchecked
// path never pays for verification: the same corruption goes unnoticed.
func TestCheckedModeOffToleratesCorruption(t *testing.T) {
	d := twoServerDC()
	d.SetChecked(false)
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 500), s0); err != nil {
		t.Fatal(err)
	}
	delete(d.byVM, 1)
	if err := d.Place(constVM(2, 500), s0); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRuntimeCleanFleet(t *testing.T) {
	d := twoServerDC()
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	// Over-demand is legal (it is the paper's overload condition), just
	// accounted: 9000 MHz on an 8000 MHz server must still pass.
	if err := d.Place(constVM(1, 9000), s0); err != nil {
		t.Fatal(err)
	}
	if err := d.AuditSpan(0, len(d.Servers), 30*time.Minute); err != nil {
		t.Fatalf("AuditSpan on a clean fleet: %v", err)
	}
}

func TestCheckRuntimeRejectsBadDemand(t *testing.T) {
	cases := []struct {
		name string
		mhz  float64
		want string
	}{
		{"negative", -5, "negative demand"},
		{"nan", math.NaN(), "non-finite demand"},
		{"inf", math.Inf(1), "non-finite demand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := twoServerDC()
			s0 := d.Servers[0]
			if err := d.Activate(s0, 0); err != nil {
				t.Fatal(err)
			}
			if err := d.Place(constVM(1, tc.mhz), s0); err != nil {
				t.Fatal(err)
			}
			err := d.AuditSpan(0, len(d.Servers), 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AuditSpan = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckRuntimeRejectsDemandOnHibernated(t *testing.T) {
	d := twoServerDC()
	s0 := d.Servers[0]
	// Bypass the API to force the impossible state: a hibernated server
	// carrying a demanding VM.
	s0.insert(constVM(1, 500))
	err := d.AuditSpan(0, len(d.Servers), 0)
	if err == nil || !strings.Contains(err.Error(), "hibernated server") {
		t.Fatalf("AuditSpan = %v, want hibernated-server error", err)
	}
}

func TestAuditSpanReportsLowestBadServerInSpan(t *testing.T) {
	d := New(UniformFleet(4, 4, 2000))
	for _, s := range d.Servers {
		if err := d.Activate(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Server 0 is bad but outside [1, 4); servers 2 and 3 are bad inside it.
	for _, p := range []struct {
		vm, server int
		mhz        float64
	}{{10, 0, -5}, {11, 1, 500}, {12, 2, math.NaN()}, {13, 3, -5}} {
		if err := d.Place(constVM(p.vm, p.mhz), d.Servers[p.server]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AuditSpan(1, 2, 0); err != nil {
		t.Fatalf("AuditSpan over the clean server 1: %v", err)
	}
	err := d.AuditSpan(1, 4, 0)
	if err == nil || !strings.Contains(err.Error(), "VM 12 on server 2") {
		t.Fatalf("AuditSpan(1, 4) = %v, want the error of server 2", err)
	}
	if err := d.AuditSpan(0, len(d.Servers), 0); err == nil || !strings.Contains(err.Error(), "server 0") {
		t.Fatalf("AuditSpan over the fleet = %v, want the error of server 0", err)
	}
}
