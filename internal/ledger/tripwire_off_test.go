//go:build !tripwire

package ledger

const tripwireEnabled = false
