//go:build sanitizer

package bio

const sanitize = true // List and Pool misuse checks (see list.go)
