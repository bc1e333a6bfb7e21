//go:build !sanitizer

package bio

const sanitize = false
