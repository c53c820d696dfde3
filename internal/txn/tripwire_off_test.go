//go:build !tripwire

package txn

const tripwireEnabled = false
