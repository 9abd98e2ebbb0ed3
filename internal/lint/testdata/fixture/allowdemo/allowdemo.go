// Package allowdemo holds malformed lint:allow directives. Each one must
// surface as an "allowlist" finding instead of silently suppressing
// nothing; the test asserts them by message, not by marker.
package allowdemo

//lint:allow
var missingPass = 1

//lint:allow nosuchpass this pass does not exist
var unknownPass = 2

//lint:allow modguard
var missingReason = 3

// Near misses: each comment starts with a directive kind but is none, so
// each is an allowlist finding instead of a silent no-op.

//lint:declassifying this is not a sanitizer
var nearDeclassify = 4

//lint:preallocated
var nearPrealloc = 5
