#!/bin/sh
# Full command-line tour: simulate data, train, predict, evaluate, certify,
# and run the structural diagnostics.  Everything lands in a scratch dir.
set -e

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

# labelled sample: first coordinate carries the signal
cat > "$WORK/train.csv" <<'EOF'
x1,x2,y
1.0,0.2,1
0.8,-0.1,1
1.2,0.4,1
0.3,0.9,1
-0.9,0.1,-1
-1.1,-0.3,-1
-0.7,0.2,-1
-0.2,-0.8,-1
EOF

echo
echo "== train (fixed penalty) =="
rejectsvm train --data "$WORK/train.csv" --d 0.25 --r 0.1 \
    --out "$WORK/model.json"

echo
echo "== train (cross-validated penalty) =="
rejectsvm train --data "$WORK/train.csv" --d 0.25 --cv --folds 4 \
    --cv-points 10 --out "$WORK/model_cv.json"

echo
echo "== predict =="
rejectsvm predict --model "$WORK/model.json" --data "$WORK/train.csv" \
    --out "$WORK/pred.csv"
head -4 "$WORK/pred.csv"

echo
echo "== eval =="
rejectsvm eval --model "$WORK/model.json" --data "$WORK/train.csv"

echo
echo "== bounds =="
rejectsvm bounds --model "$WORK/model.json" --data "$WORK/train.csv" \
    --delta 0.1

echo
echo "== diagnose on a three-atom distribution =="
cat > "$WORK/dist.csv" <<'EOF'
p,eta,x1,x2
0.3333333333333333,0.1,-1.0,0.0
0.3333333333333333,0.5,0.0,1.0
0.3333333333333334,0.9,1.0,0.0
EOF
rejectsvm diagnose --dist "$WORK/dist.csv" --checks all \
    --r-grid 0.05,0.1,0.2,0.4

echo
echo "== simulate (tiny study) =="
cat > "$WORK/cfg.json" <<'EOF'
{"repetitions": 2, "n_train": 30, "M": 20,
 "r_grid": [0.05, 0.2], "seed": 5}
EOF
rejectsvm simulate --scenario two_gaussian --config "$WORK/cfg.json" \
    --out "$WORK/study.csv"
head -3 "$WORK/study.csv"

echo
echo "done."
