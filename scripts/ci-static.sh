#!/usr/bin/env bash
# ci-static.sh runs the static steps of .github/workflows/ci.yml locally:
# gofmt, go vet (also for GOARCH=arm64), reprolint and every "one …"
# invariant step. The steps'
# run: blocks are read from the workflow file itself, so the greps have one
# copy. Each block runs as GitHub Actions runs it (bash -eo pipefail) from
# the repository root; the script stops non-zero on the first red step.
#
#   bash scripts/ci-static.sh
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
	local name=$1 body
	body=$(cat)
	echo "== $name"
	if ! bash -eo pipefail -c "$body"; then
		echo "ci-static: step '$name' failed" >&2
		exit 1
	fi
}

# extract prints one `step NAME <<'...'` call per selected step, its run:
# value unquoted (single- or double-quoted scalar, plain, or | block).
extract() {
	awk -v end=__CI_STEP_END__ '
	function unquote(v,   q, out, i, c) {
		q = substr(v, 1, 1)
		if (q == "\047") {
			v = substr(v, 2, length(v) - 2)
			gsub(/\047\047/, "\047", v)
			return v
		}
		if (q != "\"") return v
		v = substr(v, 2, length(v) - 2)
		out = ""
		for (i = 1; i <= length(v); i++) {
			c = substr(v, i, 1)
			if (c == "\\") {
				c = substr(v, ++i, 1)
				if (c == "n") c = "\n"
				else if (c == "t") c = "\t"
			}
			out = out c
		}
		return out
	}
	function emit(body) {
		if (!keep || (name in seen)) return
		seen[name] = 1
		n = name
		gsub(/\047/, "\047\\\047\047", n)
		printf "step \047%s\047 <<\047%s\047\n%s\n%s\n", n, end, body, end
	}
	function indent(s) { match(s, /^ */); return RLENGTH }
	inblock {
		if ($0 !~ /^ *$/ && indent($0) <= runIndent) {
			emit(block); inblock = 0
		} else {
			if (blockIndent < 0 && $0 !~ /^ *$/) blockIndent = indent($0)
			block = block (block == "" ? "" : "\n") substr($0, blockIndent + 1)
			next
		}
	}
	/^ *- name: / {
		name = $0
		sub(/^ *- name: */, "", name)
		name = unquote(name)
		keep = name == "gofmt" || name ~ /^go vet/ || name == "reprolint" || name ~ /^one /
		next
	}
	keep && /^ *run: */ {
		runIndent = indent($0)
		v = $0
		sub(/^ *run: */, "", v)
		if (v ~ /^\|-?$/) {
			inblock = 1; block = ""; blockIndent = -1
		} else {
			emit(unquote(v))
		}
	}
	END { if (inblock) emit(block) }
	' .github/workflows/ci.yml
}

steps=$(extract)
if ! grep -q "^step 'one " <<<"$steps"; then
	echo "ci-static: no \"one …\" step found in .github/workflows/ci.yml" >&2
	exit 1
fi
eval "$steps"
echo "ci-static: all steps green"
