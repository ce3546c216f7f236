//go:build linux

package docroot

import "strings"

// TypeByExt infers a Content-Type from a path's extension. Both live
// servers thread it through their response writers (fixing the seed
// stores' hardcoded application/octet-stream), and the docroot stamps it
// on every Entry at open time so the hot path never re-derives it.
//
// The table covers what a static docroot realistically holds; anything
// unrecognized — including the extensionless /obj/<id> SURGE population —
// falls back to application/octet-stream.
func TypeByExt(path string) string {
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 || dot < strings.LastIndexByte(path, '/') {
		return "application/octet-stream"
	}
	switch strings.ToLower(path[dot+1:]) {
	case "html", "htm":
		return "text/html"
	case "css":
		return "text/css"
	case "js", "mjs":
		return "text/javascript"
	case "txt", "log":
		return "text/plain"
	case "json":
		return "application/json"
	case "xml":
		return "application/xml"
	case "svg":
		return "image/svg+xml"
	case "png":
		return "image/png"
	case "jpg", "jpeg":
		return "image/jpeg"
	case "gif":
		return "image/gif"
	case "ico":
		return "image/x-icon"
	case "pdf":
		return "application/pdf"
	case "wasm":
		return "application/wasm"
	case "gz":
		return "application/gzip"
	default:
		return "application/octet-stream"
	}
}
