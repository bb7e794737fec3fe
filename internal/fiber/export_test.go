package fiber

import "testing"

// inBothOrders runs f twice: with the test build's body quarantine, and
// without it, in the production store's last-in-first-out reuse order, where
// a released body is handed out again by the very next Body of its class.
func inBothOrders(t *testing.T, f func(t *testing.T, quarantine bool)) {
	t.Helper()
	for _, quarantine := range []bool{true, false} {
		name := "lifo"
		if quarantine {
			name = "quarantine"
		}
		t.Run(name, func(t *testing.T) {
			defer func(old bool) { checkBodies = old }(checkBodies)
			checkBodies = quarantine
			f(t, quarantine)
		})
	}
}
