// Generated by the ScaleHLS reproduction HLS C++ emitter.
#include <cstdint>
#include <cmath>

void gemm(float alpha, float beta, float C[8][8], float A[8][8], float B[8][8]) {
  #pragma HLS resource variable=C core=ram_s2p_bram
  #pragma HLS array_partition variable=C cyclic factor=2 dim=2
  #pragma HLS resource variable=A core=ram_s2p_bram
  #pragma HLS array_partition variable=A cyclic factor=2 dim=2
  #pragma HLS resource variable=B core=ram_s2p_bram
  #pragma HLS array_partition variable=B cyclic factor=2 dim=1
  #pragma HLS array_partition variable=B cyclic factor=2 dim=2
  for (int v0 = 0; v0 < 8; v0 += 2) {
    for (int v1 = 0; v1 < 8; v1 += 1) {
      for (int v2 = 0; v2 < 8; v2 += 2) {
        #pragma HLS pipeline II=1
        int v3 = 0;
        int v4 = (v0 + v3);
        int v5 = (v2 + v3);
        float v6 = C[v1][v5];
        float v7 = v6 * beta;
        if ((v4 == 0)) {
          C[v1][v5] = v7;
        }
        float v8 = A[v1][v4];
        float v9 = alpha * v8;
        float v10 = B[v4][v5];
        float v11 = v9 * v10;
        float v12 = C[v1][v5];
        float v13 = v12 + v11;
        C[v1][v5] = v13;
        int v14 = 1;
        int v15 = (v2 + v14);
        float v16 = C[v1][v15];
        float v17 = v16 * beta;
        if ((v4 == 0)) {
          C[v1][v15] = v17;
        }
        float v18 = B[v4][v15];
        float v19 = v9 * v18;
        float v20 = C[v1][v15];
        float v21 = v20 + v19;
        C[v1][v15] = v21;
        int v22 = (v0 + v14);
        float v23 = A[v1][v22];
        float v24 = alpha * v23;
        float v25 = B[v22][v5];
        float v26 = v24 * v25;
        float v27 = C[v1][v5];
        float v28 = v27 + v26;
        C[v1][v5] = v28;
        float v29 = B[v22][v15];
        float v30 = v24 * v29;
        float v31 = C[v1][v15];
        float v32 = v31 + v30;
        C[v1][v15] = v32;
      }
    }
  }
}
