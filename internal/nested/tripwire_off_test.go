//go:build !tripwire

package nested

const tripwireEnabled = false
